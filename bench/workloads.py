"""The benchmark's four workloads.

Each workload turns a seed into inputs (its set-up), lists the operations
of one round, and checks the records those operations return.  One
operation is one key-length point, one asymptotic point or one compression
experiment.  Set-up builds configurations, budgets, sampled statistics and
the benchmark's own reference objects; everything else is timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ucqkd import b92, cli, compression

import checks
from tracing import capture


@dataclass
class Op:
    name: str
    run: Callable[[], tuple[dict, str | None]]  # (record, failure or None)


class Workload:
    name = ""
    why = ""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, records: list[dict]) -> list[str]:
        raise NotImplementedError

    def strings_hashed(self) -> int:
        """Members x |X|^n summed over the round's hash experiments."""
        return 0


# ---------------------------------------------------------------------------
# Finite-size key lengths
# ---------------------------------------------------------------------------


class _KeyRate(Workload):
    analysis = ""
    points: tuple[tuple[float, int], ...] = ()  # (depolarization, n_tot)

    def __init__(self, seed: int):
        self.ref = checks.B92Reference(b92.B92Config().amp)
        self.inputs = []
        for i, (p, n_tot) in enumerate(self.points):
            cfg = b92.B92Config(n_tot=n_tot, seed=seed)
            budget = b92.secrecy_budget(cfg, self.analysis)
            stats = b92.sample_observed(cfg, p, budget.log2_eps1,
                                        np.random.default_rng([seed, i]))
            self.inputs.append((p, cfg, budget, stats))

    def ops(self) -> list[Op]:
        return [Op(f"{self.analysis}-p{p}-n{cfg.n_tot:.0e}",
                   lambda p=p, cfg=cfg, budget=budget, stats=stats:
                   (self._point(p, cfg, budget, stats), None))
                for p, cfg, budget, stats in self.inputs]

    def _point(self, p, cfg, budget, stats) -> dict:
        res, certified = self._key_length(p, cfg, budget, stats)
        return {
            "analysis": self.analysis, "p": p, "n_tot": cfg.n_tot,
            "n_sift": res.n_sift, "alpha": res.alpha_renyi, "n_fin": float(res.n_fin),
            "net_key": float(res.net_key), "ec_cost": float(res.ec_cost),
            "eps_achieved": float(res.eps_achieved), "clamped": bool(res.clamped),
            "upper_bound": None if certified is None else float(certified.upper_bound),
            "gap": None if certified is None else float(certified.gap),
        }

    def check(self, records):
        out = []
        inputs = {op.name: point for op, point in zip(self.ops(), self.inputs)}
        for rec in records:
            p, cfg, budget, stats = inputs[rec["op"]]
            fs = b92.constraint_set_B(stats, cfg.splits, budget.log2_eps2, b92.build_povms(cfg))
            rho = self.ref.true_state(p)
            out += [f"{rec['op']}: {msg}" for msg in
                    checks.check_key_length(rec, self.ref, rho, fs, cfg.target_eps_sec)]
        return out


class KeyRateUniversal(_KeyRate):
    name = "keyrate-universal"
    why = ("universal key length with alpha=auto, as ucqkd keyrate runs it: "
           "Renyi objective, FCFW weight solve and alpha search")
    analysis = "universal"
    points = ((0.005, 10**10),)

    def _key_length(self, p, cfg, budget, stats):
        with capture(b92, "rstar_upper_bound") as calls:
            res = b92.universal_key_length(cfg, stats, budget,
                                           rho_expected=b92.depolarized_state(cfg, p))
        # the certified R* bound of the chosen alpha (last evaluation there)
        chosen = [r for args, kw, r in calls
                  if (args[2] if len(args) > 2 else kw.get("alpha")) == res.alpha_renyi]
        return res, chosen[-1] if chosen else None


class KeyRateConventional(_KeyRate):
    name = "keyrate-conventional"
    why = ("phase-error-pattern key length: SDP and phase-one bound, no Renyi "
           "calls, so Renyi or FCFW gains must not show here")
    analysis = "conventional"
    # One point, so that a run holds several rounds, whose work is the same
    # for every sampled statistic: the pattern maximization stalls at a gap
    # of 5.1e-7 (above the 2e-7 stop test) and runs all 40 iterations, and
    # the exclusion-threshold search takes 47-48 SDP solves.  At p=0.03,
    # n_tot=1e12 one seed in twenty stops at iteration 2; at p=0.005,
    # n_tot=1e10 one seed in five needs 2.5 times the solves; at p=0.01,
    # n_tot=1e9 or 1e10 the search takes 200-360 solves, varying by half.
    points = ((0.02, 10**11),)

    def _key_length(self, p, cfg, budget, stats):
        # the first maximization is the certified pattern-exponent maximum
        with capture(b92, "_maximize_entropy") as calls:
            res = b92.conventional_key_length(cfg, stats, budget)
        return res, calls[0][2] if calls else None


# ---------------------------------------------------------------------------
# Asymptotic rates
# ---------------------------------------------------------------------------


class KeyRateAsymptotic(Workload):
    name = "keyrate-asymptotic"
    why = ("asymptotic rates incl. p=0: equality sets, facial reduction, von "
           "Neumann objective, tol 1e-9 and max_outer 60")

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.grid = [0.0] + [round(c + rng.uniform(-0.001, 0.001), 6) for c in (0.005, 0.01)]
        self.cfg = b92.B92Config()
        self.ref = checks.B92Reference(self.cfg.amp)

    def ops(self):
        return [Op(f"asymptotic-p{p}", lambda p=p: (self._point(p), None)) for p in self.grid]

    def _point(self, p):
        rates = b92.asymptotic_rates(self.cfg, p)
        return {"p": p, "rates": {k: float(v) for k, v in rates.items()},
                "extraction_fraction": self.cfg.splits[0] / self.cfg.n_tot}

    def check(self, records):
        return checks.check_asymptotic(records, self.ref)


# ---------------------------------------------------------------------------
# Compression experiments
# ---------------------------------------------------------------------------

# (n, |X|, hash output dits m, decoder, family, Toeplitz members, quadrature check)
EXPERIMENTS = (
    (2, 2, 1, "partially-universal", "all-surjective", 0, True),
    (3, 2, 1, "fully-universal", "all-surjective", 0, True),
    (4, 2, 2, "partially-universal", "all-surjective", 0, False),
    (5, 2, 1, "partially-universal", "all-surjective", 0, False),
    (5, 2, 2, "fully-universal", "toeplitz", 20, False),
    (6, 2, 3, "fully-universal", "toeplitz", 10, False),
)
# `ucqkd compress-sim --n 3 --alphabet 3 --d 2 --bins-log 1.58 --seed 1`:
# the Sibson term at alpha = 1 - 0.999 overflows and its report holds NaN.
# Its inputs do not depend on the benchmark seed; it fails in every round.
KNOWN_FAILURE = (3, 3, 1, "partially-universal", "all-surjective", 0, False)
KNOWN_FAILURE_SEED = 1
D = 2


class CompressSim(Workload):
    name = "compress-sim"
    why = ("compression experiments as ucqkd compress-sim runs them: fields, "
           "hashing, Schur-Weyl, operator division, Sibson bound; no optimize")

    def __init__(self, seed: int):
        self.inputs = []
        cases = [(e, 1000 * seed + i) for i, e in enumerate(EXPERIMENTS)]
        for (n, k, m, kind, family, trials, quad), exp_seed in (
                cases + [(KNOWN_FAILURE, KNOWN_FAILURE_SEED)]):
            bins_log = 1.58 if k == 3 else float(m)
            exp = compression.CompressionExperiment(
                source=cli._random_source(k, D, exp_seed), n=n, bins_log=bins_log,
                decoder_kind=kind, hash_dits=m, family=family, seed=exp_seed,
                **({"trials": trials} if trials else {}),
            )
            self.inputs.append((exp, quad))

    def ops(self):
        return [Op(f"compress-n{exp.n}-x{len(exp.source.states)}-{exp.family}",
                   lambda exp=exp: self._experiment(exp)) for exp, _ in self.inputs]

    def _experiment(self, exp):
        report = compression.run_experiment(exp)
        doc = report.to_dict()
        k = len(exp.source.states)
        doc["metadata"].update({
            "n": exp.n, "alphabet": k, "d": exp.source.dim, "binsLog": exp.bins_log,
            "decoder": exp.decoder_kind, "family": exp.family, "seed": exp.seed,
        })
        text = json.dumps(doc, indent=2) + "\n"  # as the CLI writes it
        rec = {
            "n": exp.n, "alphabet": k, "hash_dits": exp.hash_dits,
            "decoder": exp.decoder_kind, "family": exp.family, "seed": exp.seed,
            "exactPerr": report.exactPerr, "boundPerr": report.boundPerr,
            "stdError": report.stdError,
        }
        return rec, checks.output_failure(text)

    def check(self, records):
        out = []
        inputs = {op.name: point for op, point in zip(self.ops(), self.inputs)}
        for rec in records:
            exp, quad = inputs[rec["op"]]
            if quad:
                rec["quadraturePerr"] = checks.error_probability_by_quadrature(
                    exp.source.probs, exp.source.states, exp.n, exp.hash_dits,
                    exp.decoder_kind)
            out += checks.check_compression(rec)
        return out

    def strings_hashed(self):
        total = 0
        for exp, _ in self.inputs:
            k = len(exp.source.states)
            if exp.family == "toeplitz":
                members = exp.trials
            else:
                members = math.prod(k**exp.n - k**i for i in range(exp.hash_dits))
            total += members * k**exp.n
        return total


WORKLOADS = {w.name: w for w in (KeyRateUniversal, KeyRateConventional,
                                 KeyRateAsymptotic, CompressSim)}
