"""The benchmark's workloads: inputs from a seed, the timed library calls,
and the checks on their outputs.

Each workload builds its inputs from the workload seed alone: replicate r
(or split s) of seed n uses library seed 1000 * n + r (or + s). A pass
over a workload is a list of units, each one library call: one replicate
per ``run_experiment`` call, or a chunk of consecutive splits per
``run_testlik_protocol`` call. A unit's library seeds are those it has in
the one-call form, so the units together compute exactly what a single
call over all replicates (or splits) computes. ebsbm is imported inside
the methods, so that importing it counts as set-up.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field, replace


def base_seed(seed: int) -> int:
    return 1000 * seed


@dataclass
class Checked:
    """Outcome of one pass's output checks."""

    units: int
    failed: int
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class SbmWorkload:
    """Affiliation SBM replicates through ``run_experiment`` with an output
    directory, as ``ebsbm experiment`` runs them; a unit is a replicate."""

    name: str
    why: str
    n: int
    k_star: int
    rho: float
    k_range: tuple
    replicates: int
    lam: float = 0.9
    epsilon: float = 0.1

    unit = "replicate"

    def setup(self, seed):
        from ebsbm import experiment

        return experiment.ExperimentConfig(
            model="sbm-affiliation", n=self.n, k_star=self.k_star, lam=self.lam,
            epsilon=self.epsilon, rho=self.rho, k_range=self.k_range,
            replicates=self.replicates, base_seed=base_seed(seed), workers=1)

    def units(self, cfg):
        """One config per replicate, with that replicate's seed."""
        return [replace(cfg, replicates=1, base_seed=cfg.base_seed + r)
                for r in range(cfg.replicates)]

    def call(self, cfg, out_dir):
        from ebsbm import experiment

        return experiment.run_experiment(cfg, out_dir=out_dir)

    def artifact(self, result, out_dir):
        """The byte-compared output of a pass."""
        return os.path.join(out_dir, "records.jsonl")

    def check(self, cfg, result, out_dir) -> Checked:
        problems = []
        bad = set()
        for skip in result.skipped:
            bad.add(skip["replicate"])
            problems.append(f"replicate {skip['replicate']} skipped: {skip['error']}")
        by_rep = {}
        for rec in result.records:
            by_rep.setdefault(rec.replicate, []).append(rec)
        for r in range(cfg.replicates):
            recs = by_rep.get(r, [])
            if [rec.K_input for rec in recs] != list(cfg.k_range):
                bad.add(r)
                problems.append(f"replicate {r}: {len(recs)} records, "
                                f"expected one per K in {cfg.k_range}")
            for rec in recs:
                errs = (rec.mse_mle, rec.mse_eb, rec.mse_vbem)
                if not all(math.isfinite(v) and v >= 0 for v in errs):
                    bad.add(r)
                    problems.append(f"replicate {r} K={rec.K_input}: MSE {errs}")
                if rec.K_returned > rec.K_input:
                    bad.add(r)
                    problems.append(f"replicate {r} K={rec.K_input}: "
                                    f"K_returned={rec.K_returned}")
        with open(self.artifact(result, out_dir)) as fh:
            parsed = [json.loads(line) for line in fh]
        expected = [rec.to_json_dict() for rec in result.records]
        if len(parsed) != len(expected):
            bad.update(range(cfg.replicates))
            problems.append(f"records.jsonl has {len(parsed)} lines, "
                            f"run returned {len(expected)} records")
        for got, want in zip(parsed, expected):
            if got != want:
                bad.add(want["replicate"])
                problems.append(f"records.jsonl differs at replicate "
                                f"{want['replicate']} K={want['K_input']}")
        return Checked(units=cfg.replicates, failed=len(bad), problems=problems)

    def quality(self, results):
        """Median mse_eb/mse_mle over the (replicate, K) records of a pass;
        reported, not gated."""
        ratios = [rec.mse_eb / rec.mse_mle for res in results
                  for rec in res.records if rec.mse_mle > 0]
        return {"eb_mle_mse_ratio": statistics.median(ratios) if ratios else math.nan}

    def khat_abs_err(self, results):
        """Mean abs(k_hat_EB - K*) over the replicates of a pass."""
        errs = [float(row["e_k_star"]) for res in results for row in res.selection_rows
                if row["criterion"] == "EB" and "e_k_star" in row]
        return statistics.fmean(errs) if errs else 0.0


@dataclass(frozen=True)
class HeldoutInputs:
    graph: object
    partition: object
    base_seed: int
    splits: int


@dataclass(frozen=True)
class HeldoutWorkload:
    """The held-out likelihood protocol on the bundled annotated network
    through ``run_testlik_protocol``; ingest is set-up; a unit is a split."""

    name: str
    why: str
    splits: int
    chunk: int  # splits per unit
    fraction: float = 0.7

    unit = "split"
    methods = ("MLE", "EB", "fixed-prior")

    def setup(self, seed):
        from ebsbm import io

        graph, part, _, _ = io.ingest_network(io.bundled_data_path("synthetic_edges.txt"),
                                              io.bundled_data_path("synthetic_labels.txt"))
        return HeldoutInputs(graph=graph, partition=part, base_seed=base_seed(seed),
                             splits=self.splits)

    def units(self, inputs):
        """Consecutive chunks of splits, each with its splits' seeds."""
        return [replace(inputs, base_seed=inputs.base_seed + s,
                        splits=min(self.chunk, self.splits - s))
                for s in range(0, self.splits, self.chunk)]

    def call(self, inputs, out_dir):
        from ebsbm import experiment

        return experiment.run_testlik_protocol(
            inputs.graph, inputs.partition, n_splits=inputs.splits,
            fraction=self.fraction, base_seed=inputs.base_seed)

    def artifact(self, result, out_dir):
        """Writes the per-split log-likelihoods and returns the path."""
        path = os.path.join(out_dir, "testlik.json")
        with open(path, "w") as fh:
            json.dump(result, fh, sort_keys=True)
            fh.write("\n")
        return path

    def check(self, inputs, result, out_dir) -> Checked:
        problems = []
        values = [result.get(m, []) for m in self.methods]
        for m, vals in zip(self.methods, values):
            if len(vals) != inputs.splits:
                problems.append(f"{m}: {len(vals)} values, expected {inputs.splits}")
        failed = 0
        for s in range(inputs.splits):
            split = [vals[s] if s < len(vals) else None for vals in values]
            if not all(v is not None and math.isfinite(v) and v <= 0 for v in split):
                failed += 1
                problems.append(f"split {inputs.base_seed + s}: log-likelihoods "
                                f"{dict(zip(self.methods, split))}")
        return Checked(units=inputs.splits, failed=failed, problems=problems)

    def quality(self, results):
        """Median EB minus median MLE held-out log-likelihood over the
        splits of a pass; reported, not gated."""
        eb = [v for res in results for v in res.get("EB", [])]
        mle = [v for res in results for v in res.get("MLE", [])]
        if not eb or not mle:
            return {"heldout_gain": math.nan}
        return {"heldout_gain": statistics.median(eb) - statistics.median(mle)}

    def khat_abs_err(self, results):
        return 0.0


WORKLOADS = {
    w.name: w for w in (
        SbmWorkload(
            name="sweep",
            why=("Full pipeline over K=5..15 on a moderate graph (criterion-5 "
                 "configuration): VEM, spectral start, hyperparameter fit and MSE."),
            n=400, k_star=10, rho=0.2, k_range=tuple(range(5, 16)), replicates=8),
        SbmWorkload(
            name="large",
            why=("One n=4000 graph detected at K=10 only: the dense n x n "
                 "representation (eigensolve, MSE expansion, sampling) dominates."),
            n=4000, k_star=10, rho=0.05, k_range=(10,), replicates=1),
        HeldoutWorkload(
            name="heldout",
            why=("Held-out likelihood protocol on the bundled n=200 network "
                 "(criterion 8): no detection; hyperparameter fits dominate."),
            splits=100, chunk=2),
    )
}
