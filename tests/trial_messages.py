"""The message accounting of one trial on given rows, as a run reports it."""

import csv
import warnings

import numpy as np

from ldp_erm.errors import SampleSizeWarning
from ldp_erm.harness import ExperimentConfig, run_experiment


def trial_messages(out_dir, mechanism: str, rows, kind: str, params: dict,
                   seed: int = 0) -> dict:
    """The ``transcript_summary.csv`` row of one trial of ``mechanism`` on
    ``rows``, read from a file dataset of ``kind`` (a ball file holds the
    features, then the label column)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "rows.csv"
    np.savetxt(path, rows, delimiter=",")
    cfg = ExperimentConfig(
        mechanism=mechanism,
        dataset={"family": "file", "path": str(path), "kind": kind},
        params=params, trials=1, seed=seed, out=str(out_dir))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        result = run_experiment(cfg)
    assert result.failures == 0, result.rows
    with open(result.transcript_path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    return row
