"""Write every CLI artifact of a small fixed pipeline, for byte-identity checks.

Usage: python tools/cli_outputs.py SRC OUT
       python tools/cli_outputs.py --compare A B

Imports ``tcflow`` from the source directory SRC (for example ``src`` of a
checkout) and runs, through ``tcflow.cli.main``, into the empty directory OUT:

- ``generate``: a 600-step sine with spike and platform anomalies, seed 7;
- ``generate`` of each other family (saw, increasing, wave, random-walk,
  cbf) with all 8 anomaly kinds and ``[generate] n_anomalies = 8``, so every
  family generator and every anomaly injection is compared;
- ``train`` for 2 epochs with each of the 7 methods, and again with 2-layer
  LSTMs (``[encoder] lstm_layers = 2``) for ``tcnf-stateless`` and
  ``tcnf-stateful``, whose training draws the dropout between LSTM layers;
- a one-generation search (2 candidate and 2 final epochs) for ``tcnf-base``
  (budget 9), and for ``tcnf-mlp``, ``tcnf-cnn``, ``tcnf-stateless`` and
  ``tcnf-stateful`` (budget 10), so every kind of search row (``cond_*``,
  ``lookback`` and each encoder's own fields) is decoded into a config and
  the stateful training path runs with searched settings;
- ``score --labeled``, ``evaluate`` and ``export-latent`` on the test series
  for all 14 models;
- one ``report`` over the 14 ``metrics.csv`` files;
- ``generate`` of a 3-channel series (so the pad channel is added), headerless
  copies of its training and test CSVs (first line stripped), and ``train``,
  ``score --labeled --svg``, ``evaluate`` and ``export-latent`` of
  ``tcnf-base`` on those copies, so header detection and the score plot are
  part of the comparison;
- a hand-made ``t,score,label`` scores CSV with integer-valued scores, many
  of them tied across both classes, and ``evaluate`` on it, so the tie
  grouping of every metric and of the best-F1 threshold is compared (model
  scores almost never tie).

That is 174 files.

A change that must not alter any output is checked by running this against
the parent's ``src`` and the change's, each into its own directory, then
``diff -r`` of the two. The commands run inside OUT with relative paths,
so the resolved INIs of both runs name the same ``out_dir``. Every command
must exit 0.

A change declared to alter some outputs in their last digits is reported by
``--compare A B`` over two such directories. It prints each file that is not
byte-identical, or present in only one of them. For a CSV whose fields match
as text wherever they are not both numbers, and for a model file whose header
matches, it adds the largest relative difference |a - b| / max(|a|, |b|) over
the numeric fields or the parameters. It ends with the count of byte-identical
files and exits 1 when any file differs.
"""

from __future__ import annotations

import os
import struct
import sys
from itertools import chain
from pathlib import Path

import numpy as np

CONFIG = """\
[train]
epochs = 2

[search]
candidate_epochs = 2
final_epochs = 2
"""
TWO_LAYER_LSTM = "\n[encoder]\nlstm_layers = 2\n"
EIGHT_ANOMALIES = "[generate]\nn_anomalies = 8\n"
# method -> budget: one population of its search space
SEARCHES = {"tcnf-base": 9, "tcnf-mlp": 10, "tcnf-cnn": 10, "tcnf-stateless": 10,
            "tcnf-stateful": 10}


def main(src: str, out: str) -> int:
    sys.path.insert(0, str(Path(src).resolve()))
    from tcflow.cli import METHODS, main as cli
    from tcflow.data import ANOMALY_KINDS

    out = Path(out)
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    data, config, config_2 = Path("data"), Path("config.ini"), Path("config-lstm2.ini")
    config.write_text(CONFIG)
    config_2.write_text(CONFIG + TWO_LAYER_LSTM)
    config_8 = Path("config-anomalies.ini")
    config_8.write_text(EIGHT_ANOMALIES)

    def run(*argv):
        argv = [str(a) for a in argv]
        if cli(argv) != 0:
            raise SystemExit(f"failed: tcflow {' '.join(argv)}")

    run("generate", "--family", "sine", "--anomaly", "spike", "--anomaly", "platform",
        "--n-steps", 600, "--seed", 7, "--out-dir", data)
    every_kind = [arg for kind in ANOMALY_KINDS for arg in ("--anomaly", kind)]
    for family in ("saw", "increasing", "wave", "random-walk", "cbf"):
        run("generate", "--config", config_8, "--family", family, *every_kind,
            "--n-steps", 600, "--seed", 7, "--out-dir", Path(f"data-{family}"))
    models = {}
    for method in METHODS:
        run("train", "--config", config, "--data", data / "train_clean.csv",
            "--method", method, "--out-dir", Path(method, "train"))
        models[method] = Path(method, "train") / "model.tcf"
    for method in ("tcnf-stateless", "tcnf-stateful"):
        name = f"{method}-2layer"
        run("train", "--config", config_2, "--data", data / "train_clean.csv",
            "--method", method, "--out-dir", Path(name, "train"))
        models[name] = Path(name, "train") / "model.tcf"
    for method, budget in SEARCHES.items():
        name = f"{method}-search"
        run("search", "--config", config, "--train", data / "train_clean.csv",
            "--labeled", data / "train_labeled.csv", "--method", method,
            "--budget", budget, "--out-dir", name)
        models[name] = Path(name, "model.tcf")
    test = data / "test_labeled.csv"
    for name, model in models.items():
        run("score", "--model", model, "--data", test, "--labeled",
            "--out-dir", Path(name, "score"))
        run("evaluate", "--scores", Path(name, "score", "scores.csv"),
            "--out-dir", Path(name, "evaluate"))
        run("export-latent", "--model", model, "--data", test, "--labeled",
            "--out-dir", Path(name, "latent"))
    run("report", *(Path(name, "evaluate", "metrics.csv") for name in models),
        "--out-dir", "report")

    data_3, bare = Path("data-3ch"), Path("headerless")
    run("generate", "--family", "sine", "--n-channels", 3, "--n-steps", 600, "--seed", 8,
        "--out-dir", data_3)
    bare.mkdir()
    for name in ("train_clean.csv", "test_labeled.csv"):
        lines = (data_3 / name).read_text().splitlines(keepends=True)
        (bare / name).write_text("".join(lines[1:]))
    run("train", "--config", config, "--data", bare / "train_clean.csv",
        "--method", "tcnf-base", "--out-dir", bare / "train")
    run("score", "--model", bare / "train" / "model.tcf", "--data", bare / "test_labeled.csv",
        "--labeled", "--svg", "--out-dir", bare / "score")
    run("evaluate", "--scores", bare / "score" / "scores.csv", "--out-dir", bare / "evaluate")
    run("export-latent", "--model", bare / "train" / "model.tcf",
        "--data", bare / "test_labeled.csv", "--labeled", "--out-dir", bare / "latent")

    tied = Path("tied-scores.csv")
    rows = ["t,score,label"]
    for t in range(300):
        label = int(t % 50 >= 40)
        rows.append(f"{t},{(t * 7) % 5 + 2 * label}.0,{label}")
    tied.write_text("\n".join(rows) + "\n")
    run("evaluate", "--scores", tied, "--out-dir", "tied-evaluate")
    return 0


def _largest_relative_difference(a: Path, b: Path) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers of two files of
    one layout (nan where a non-finite value differs), or None when they
    differ otherwise: in text, in shape or in a model header."""
    if a.suffix == ".csv":
        rows_a, rows_b = ([line.split(",") for line in p.read_text().splitlines()] for p in (a, b))
        if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
            return None
        x, y = [], []
        for field_a, field_b in zip(chain.from_iterable(rows_a), chain.from_iterable(rows_b)):
            try:
                pair = float(field_a), float(field_b)
            except ValueError:
                if field_a != field_b:
                    return None
                continue
            x.append(pair[0])
            y.append(pair[1])
    elif a.suffix == ".tcf":
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        from tcflow.train import MODEL_MAGIC

        raw_a, raw_b = a.read_bytes(), b.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw_a, len(MODEL_MAGIC))
        params_at = len(MODEL_MAGIC) + 8 + header_len
        if raw_a[:params_at] != raw_b[:params_at] or len(raw_a) != len(raw_b):
            return None
        x, y = (np.frombuffer(raw, dtype="<f8", offset=params_at) for raw in (raw_a, raw_b))
    else:
        return None
    x, y = np.asarray(x), np.asarray(y)
    unequal = (x != y) & ~(np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        rel = np.abs(x - y)[unequal] / np.maximum(np.abs(x), np.abs(y))[unequal]
    return float(rel.max(initial=0.0))


def compare(a: str, b: str) -> int:
    a, b = Path(a), Path(b)
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    same = 0
    for name in names:
        file_a, file_b = a / name, b / name
        if not (file_a.is_file() and file_b.is_file()):
            print(f"{name}: only in {a if file_a.is_file() else b}")
        elif file_a.read_bytes() == file_b.read_bytes():
            same += 1
        else:
            rel = _largest_relative_difference(file_a, file_b)
            print(f"{name}: differs" + ("" if rel is None else f", largest relative difference {rel:.3g}"))
    print(f"{same} of {len(names)} files byte-identical")
    return 0 if same == len(names) else 1


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(args[1], args[2]))
    if len(args) != 2 or args[0] == "--compare":
        raise SystemExit(__doc__)
    sys.exit(main(args[0], args[1]))
