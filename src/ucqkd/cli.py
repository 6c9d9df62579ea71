"""Batch entry point: subcommand dispatch, CSV/SVG emission, self-tests.

Subcommands
-----------
compress-sim       one universal-compression experiment, JSON error report
keyrate            finite-size key-rate grid (n_tot x depolarization), CSV
keyrate-asymptotic asymptotic rates on a depolarization grid, CSV
selftest           run every module's invariant suite with timings

Exit codes: 0 ok, 2 invariant violation, 3 capacity, 64 usage.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import b92, compression, entropies, fields, hashing, matfun, optimize, schur_weyl
from .errors import CapacityError, DomainError, InfeasibleError, InvariantError, UsageError

CSV_COLUMNS = (
    "n_tot", "p", "analysis", "alpha_renyi", "n_fin", "ec_cost",
    "net_key", "key_rate", "eps_sec", "eps_cor", "seed", "flag",
)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def parse_eps(text: str) -> float:
    """Parse an epsilon literal; `2^-k` is evaluated exactly in log space."""
    text = str(text).strip()
    m = re.fullmatch(r"2\^(-?\d+(?:\.\d+)?)", text)
    if m:
        k = float(m.group(1))
        if k < -1074.0:
            raise UsageError(f"epsilon literal {text!r} underflows")
        if k >= 0.0:
            raise UsageError("epsilon must lie in (0,1)")
        return 2.0**k
    try:
        val = float(text)
    except ValueError:
        raise UsageError(f"cannot parse epsilon literal {text!r}") from None
    if not 0.0 < val < 1.0:
        raise UsageError("epsilon must lie in (0,1)")
    return val


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(t) for t in str(text).split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"cannot parse list {text!r}") from None


def _parse_grid(text: str) -> list[float]:
    """`start:stop:step` inclusive grid, or a comma list."""
    if ":" in str(text):
        parts = str(text).split(":")
        if len(parts) != 3:
            raise UsageError("grid syntax is start:stop:step")
        try:
            lo, hi, step = (float(t) for t in parts)
        except ValueError:
            raise UsageError(f"cannot parse grid {text!r}") from None
        if step <= 0 or hi < lo:
            raise UsageError("grid needs step > 0 and stop >= start")
        npts = int(round((hi - lo) / step)) + 1
        return [lo + i * step for i in range(npts)]
    return _parse_float_list(text)


def _merge_config(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults <- JSON config file <- explicitly given flags."""
    merged = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(doc) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for key in defaults:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            merged[key] = val
    return merged


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# compress-sim
# ---------------------------------------------------------------------------

_COMPRESS_DEFAULTS = {
    "n": 2, "alphabet": 2, "d": 2, "bins_log": 1.0,
    "decoder": "partial", "family": "all-surjective",
    "seed": 0, "out": None,
}

_DECODER_ALIASES = {
    "partial": "partially-universal", "full": "fully-universal",
    "partially-universal": "partially-universal",
    "fully-universal": "fully-universal",
}


def _random_source(alphabet: int, d: int, seed: int) -> entropies.CqSource:
    rng = np.random.default_rng([seed, 0xC0])
    probs = rng.dirichlet(np.ones(alphabet))
    states = tuple(matfun.random_density(d, rng) for _ in range(alphabet))
    return entropies.CqSource(probs=probs, states=states)


def cmd_compress_sim(args: argparse.Namespace) -> int:
    opts = _merge_config(_COMPRESS_DEFAULTS, args)
    kind = _DECODER_ALIASES.get(str(opts["decoder"]))
    if kind is None:
        raise UsageError(f"unknown decoder {opts['decoder']!r}")
    source = _random_source(int(opts["alphabet"]), int(opts["d"]), int(opts["seed"]))
    exp = compression.CompressionExperiment(
        source=source, n=int(opts["n"]), bins_log=float(opts["bins_log"]),
        decoder_kind=kind, hash_dits=max(1, round(float(opts["bins_log"])
                                                  / math.log2(int(opts["alphabet"])))),
        family=str(opts["family"]), seed=int(opts["seed"]),
    )
    report = compression.run_experiment(exp)
    doc = report.to_dict()
    doc["metadata"].update({
        "n": exp.n, "alphabet": int(opts["alphabet"]), "d": int(opts["d"]),
        "binsLog": exp.bins_log, "decoder": kind, "family": exp.family,
        "seed": exp.seed,
    })
    _write_text(opts["out"], json.dumps(doc, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# keyrate / keyrate-asymptotic
# ---------------------------------------------------------------------------

_KEYRATE_DEFAULTS = {
    "analysis": "both", "depol": None, "depol_grid": None, "ntot": "1e9",
    "eps_sec": "2^-50", "eps_cor": "2^-50", "amp": 0.38, "alpha": "auto",
    "seed": 0, "jobs": None,
    "out": None, "svg": None,
}

_ASYMPTOTIC_DEFAULTS = {
    "depol": None, "depol_grid": "0:0.06:0.005", "amp": 0.38,
    "seed": 0, "jobs": None,
    "out": None, "svg": None,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _keyrate_point(task: dict) -> dict:
    """One (n_tot, p, analysis) grid point; runs in a worker process."""
    cfg = b92.B92Config(
        amp=task["amp"], n_tot=task["n_tot"],
        target_eps_sec=task["eps_sec"], eps_cor=task["eps_cor"],
        alpha_renyi=task["alpha"], seed=task["seed"],
    )
    analysis = task["analysis"]
    p = task["p"]
    row = {
        "n_tot": task["n_tot"], "p": p, "analysis": analysis,
        "alpha_renyi": "", "n_fin": 0.0, "ec_cost": 0.0, "net_key": 0.0,
        "key_rate": 0.0, "eps_sec": task["eps_sec"], "eps_cor": task["eps_cor"],
        "seed": task["seed"], "flag": "",
    }
    try:
        budget = b92.secrecy_budget(cfg, analysis)
        rng = np.random.default_rng([task["seed"], task["index"]])
        stats = b92.sample_observed(cfg, p, budget.log2_eps1, rng)
        if analysis == "universal":
            rho = b92.depolarized_state(cfg, p)
            res = b92.universal_key_length(cfg, stats, budget, rho_expected=rho)
        else:
            res = b92.conventional_key_length(cfg, stats, budget)
    except (InfeasibleError, DomainError) as exc:
        row["flag"] = f"infeasible:{type(exc).__name__}"
        return row
    row.update(
        alpha_renyi="" if res.alpha_renyi is None else res.alpha_renyi,
        n_fin=res.n_fin, ec_cost=res.ec_cost, net_key=res.net_key,
        key_rate=res.net_key / cfg.n_tot, eps_sec=res.eps_achieved,
    )
    if res.clamped:
        row["flag"] = "clamped"
    return row


def _asymptotic_point(task: dict) -> dict:
    cfg = b92.B92Config(amp=task["amp"], seed=task["seed"])
    rates = b92.asymptotic_rates(cfg, task["p"])
    return {"p": task["p"], "rates": rates}


def _run_pool(worker, tasks: list[dict], jobs: int | None) -> list:
    """Dispatch to a bounded process pool; results come back in grid order."""
    jobs = jobs or os.cpu_count() or 1
    jobs = max(1, min(int(jobs), len(tasks))) if tasks else 1
    if jobs == 1:
        return [worker(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _depol_values(opts: dict) -> list[float]:
    if opts.get("depol") is not None:
        vals = _parse_float_list(opts["depol"])
    elif opts.get("depol_grid") is not None:
        vals = _parse_grid(opts["depol_grid"])
    else:
        raise UsageError("need --depol or --depol-grid")
    for p in vals:
        if not 0.0 <= p <= 1.0:
            raise UsageError("depolarization must lie in [0,1]")
    return vals


def cmd_keyrate(args: argparse.Namespace) -> int:
    opts = _merge_config(_KEYRATE_DEFAULTS, args)
    pvals = _depol_values(opts)
    ntots = []
    for x in _parse_float_list(opts["ntot"]):
        n = int(round(x))
        if n < 3:
            raise UsageError("n_tot must be at least 3")
        ntots.append(n)
    analyses = {"both": ("universal", "conventional")}.get(
        opts["analysis"], (opts["analysis"],)
    )
    if analyses[0] not in ("universal", "conventional"):
        raise UsageError(f"unknown analysis {opts['analysis']!r}")
    alpha = opts["alpha"]
    if alpha != "auto":
        alpha = float(alpha)
    tasks = []
    for n_tot in ntots:
        for p in pvals:
            for analysis in analyses:
                tasks.append({
                    "index": len(tasks), "n_tot": n_tot, "p": p,
                    "analysis": analysis, "amp": float(opts["amp"]),
                    "eps_sec": parse_eps(opts["eps_sec"]),
                    "eps_cor": parse_eps(opts["eps_cor"]),
                    "alpha": alpha, "seed": int(opts["seed"]),
                })
    rows = _run_pool(_keyrate_point, tasks, opts["jobs"])
    _write_text(opts["out"], _rows_to_csv(rows))
    if opts["svg"]:
        curves = {}
        for row in rows:
            curves.setdefault(f"{row['analysis']} p={row['p']:g}", []).append(
                (row["n_tot"], row["key_rate"])
            )
        _write_text(opts["svg"], render_svg(curves, "n_tot", "key rate"))
    return 0


def cmd_keyrate_asymptotic(args: argparse.Namespace) -> int:
    opts = _merge_config(_ASYMPTOTIC_DEFAULTS, args)
    pvals = _depol_values(opts)
    tasks = [{
        "index": i, "p": p, "amp": float(opts["amp"]),
        "seed": int(opts["seed"]),
    } for i, p in enumerate(pvals)]
    results = _run_pool(_asymptotic_point, tasks, opts["jobs"])
    rows = []
    for res in results:
        for analysis in ("universal", "conventional"):
            rate = res["rates"][analysis]
            rows.append({
                "n_tot": "inf", "p": res["p"], "analysis": analysis,
                "alpha_renyi": "", "n_fin": "", "ec_cost": "", "net_key": "",
                "key_rate": max(0.0, rate), "eps_sec": 0.0, "eps_cor": 0.0,
                "seed": int(opts["seed"]),
                "flag": "clamped" if rate < 0.0 else "",
            })
    _write_text(opts["out"], _rows_to_csv(rows))
    if opts["svg"]:
        curves = {}
        for row in rows:
            curves.setdefault(row["analysis"], []).append((row["p"], row["key_rate"]))
        _write_text(opts["svg"], render_svg(curves, "p", "key rate", log_x=False))
    return 0


# ---------------------------------------------------------------------------
# SVG emission (self-contained markup, no plotting dependency)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def render_svg(curves: dict[str, list[tuple[float, float]]], xlabel: str,
               ylabel: str, log_x: bool = True) -> str:
    """Minimal 640 x 420 line chart: one polyline per named curve, optional log x."""
    width, height, pad = 640, 420, 60
    pts_all = [pt for pts in curves.values() for pt in pts]
    if not pts_all:
        raise UsageError("no data to plot")
    fx = (lambda v: math.log10(max(v, 1e-300))) if log_x else (lambda v: v)
    xs = [fx(x) for x, _ in pts_all]
    ys = [y for _, y in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys)
    x1 += (x1 - x0 or 1.0) * 1e-9
    y1 += (y1 - y0 or 1.0) * 1e-9

    def sx(v):
        return pad + (fx(v) - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="13">{xlabel}{" (log)" if log_x else ""}</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height // 2})">{ylabel}</text>',
    ]
    for i, (name, pts) in enumerate(sorted(curves.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * i + 10}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


class _Check:
    """Assertion counter for the self-test suites."""

    def __init__(self):
        self.count = 0

    def __call__(self, cond: bool, message: str) -> None:
        self.count += 1
        if not cond:
            raise InvariantError(message)


def _suite_field_weyl(check: _Check, quick: bool) -> None:
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1)):
        F = fields.field(p, r)
        q = p**r
        for a in range(q):
            for b in range(q):
                X, Z = fields.weyl_x(F, [a]), fields.weyl_z(F, [b])
                phase = F.character(F.mul_table[a, b])
                check(np.allclose(Z @ X, phase * (X @ Z), atol=1e-12),
                      f"Weyl commutation fails at q={q} a={a} b={b}")
                s = F.character(F.mul_table[a]).sum()
                expect = q if a == 0 else 0.0
                check(abs(s - expect) < 1e-9, f"character sum fails at q={q}")
        mub = fields.mub_basis(F)
        check(np.allclose(np.abs(mub) ** 2, 1.0 / q, atol=1e-12),
              f"MUB unbiasedness fails at q={q}")
        check(np.allclose(mub.conj().T @ mub, np.eye(q), atol=1e-12),
              f"MUB orthonormality fails at q={q}")


def _suite_hashing(check: _Check, quick: bool) -> None:
    rng = np.random.default_rng(5)
    # (n, m) up to n = 3 per field; the 3780 members of the 3 x 2 family over
    # GF(4) would take most of the suite's time
    for (p, r), shapes in (((2, 1), ((2, 1), (3, 1), (3, 2))),
                           ((3, 1), ((2, 1), (3, 1), (3, 2))),
                           ((2, 2), ((2, 1), (2, 2), (3, 1)))):
        F = fields.field(p, r)
        q = F.q
        for n, m in shapes:
            fam = hashing.enumerate_surjective_family(F, n, m)
            check(len(fam) == math.prod(q**n - q**i for i in range(m)),
                  f"surjective family has the wrong size at q={q} n={n} m={m}")
            frac, bound = hashing.verify_two_universal(F, fam, n, m)
            check(frac <= bound + 1e-15,
                  f"surjective family not 2-universal at q={q} n={n} m={m}")
            pre = hashing.hash_preimages(F, fam[0], n)
            total = sum(len(v) for v in pre.values())
            check(total == q**n, "hash preimages do not partition the domain")
            H = hashing.sample_toeplitz(F, n, m, rng)
            quad = hashing.build_dual_quadruple(F, H)
            U = hashing.hashing_unitary(F, quad)
            check(np.allclose(U.conj().T @ U, np.eye(q**n), atol=1e-10),
                  f"hashing unitary is not unitary at q={q} n={n} m={m}")


def _suite_schur_weyl(check: _Check, quick: bool) -> None:
    rng = np.random.default_rng(11)
    for n in range(1, 4 if quick else 5):
        d = 2
        blocks = schur_weyl.build_isotypic_blocks(n, d)
        total = sum(b.projector for b in blocks)
        check(np.allclose(total, np.eye(d**n), atol=1e-10),
              f"isotypic completeness fails at n={n}")
        for i, bi in enumerate(blocks):
            for bj in blocks[i + 1:]:
                check(np.allclose(bi.projector @ bj.projector, 0.0, atol=1e-10),
                      f"isotypic orthogonality fails at n={n}")
        sig = schur_weyl.universal_symmetric_state(n, d)
        c = schur_weyl.domination_factor(n, d)
        for _ in range(3):
            rho = matfun.random_density(d, rng)
            rho_n = rho
            for _ in range(n - 1):
                rho_n = np.kron(rho_n, rho)
            lam = matfun.herm_eig(c * sig - rho_n)[0]
            check(lam.min() >= -1e-10, f"domination fails at n={n}")


def _suite_operator_division(check: _Check, quick: bool) -> None:
    rng = np.random.default_rng(23)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        A = matfun.random_density(d, rng)
        B = matfun.random_density(d, rng) + 0.05 * np.eye(d)
        Y = compression.operator_division(A, B)
        Yq = compression.operator_division_quadrature(A, B)
        check(np.abs(Y - Yq).max() <= 1e-8, "closed-form division != quadrature")
        check(np.allclose(compression.operator_division(B, B), np.eye(d), atol=1e-10),
              "division completeness A/A != support projector")


def _suite_entropies(check: _Check, quick: bool) -> None:
    rng = np.random.default_rng(31)
    for _ in range(6):
        probs = rng.dirichlet(np.ones(2))
        states = tuple(matfun.random_density(2, rng) for _ in range(2))
        src = entropies.CqSource(probs=probs, states=states)
        for alpha in (0.3, 0.7):
            closed = entropies.conditional_renyi_sibson(src, alpha)
            direct = entropies.conditional_renyi_direct(src, alpha)
            check(abs(closed - direct.upper_bound) <= 1e-6, "Sibson identity violated")
        grid = entropies.conditional_renyi_sibson(src, np.linspace(0.1, 0.9, 9))
        check(all(x >= y - 1e-12 for x, y in zip(grid, grid[1:])),
              "Sibson entropy not non-increasing in alpha")
    # scalar root-finders: residuals and the p=0 closed form
    for n, k in ((10**6, -50), (10**9, -120)):
        d2 = entropies.solve_delta2(0.0, n, log2_eps=k)
        check(abs(d2 - (1.0 - 2.0 ** (k / n))) <= 1e-12,
              "delta2 p=0 closed form mismatch")
        d2b = entropies.solve_delta2(0.3, n, log2_eps=k)
        resid = entropies.binary_relative_entropy(0.3, 0.3 + d2b) - (-k) / n
        check(abs(resid) <= 1e-10, "delta2 residual too large")


def _suite_compression(check: _Check, quick: bool) -> None:
    src = _random_source(2, 2, seed=3)
    exp = compression.CompressionExperiment(
        source=src, n=1, bins_log=1.0, decoder_kind="partially-universal",
        hash_dits=1, seed=3)
    report = compression.run_experiment(exp)
    check(report.exactPerr <= 1e-10, "injective compression should be exact")
    for kind in ("partially-universal", "fully-universal"):
        exp2 = compression.CompressionExperiment(
            source=src, n=2, bins_log=1.0, decoder_kind=kind, hash_dits=1, seed=3)
        rep2 = compression.run_experiment(exp2)
        check(rep2.exactPerr <= rep2.boundPerr + 1e-12,
              "error-exponent bound violated")


def _suite_optimize(check: _Check, quick: bool) -> None:
    rng = np.random.default_rng(41)
    for _ in range(4):
        C = matfun.random_density(3, rng) - matfun.random_density(3, rng)
        fs = optimize.FeasibleSet(dim=3)
        res = optimize.solve_linear_sdp(C, fs)
        top = matfun.herm_eig(C)[0].max()
        check(abs(res.primal - top) <= 1e-6, "unconstrained SDP != top eigenvalue")
        check(res.primal <= res.dual_bound + 1e-9, "SDP dual bound not valid")
    q = np.array([0.4, 0.3, 0.2, 0.1])
    gamma = np.array([1.0, 0.5, 0.2, 0.0])
    p, div = optimize.tilted_projection(q, gamma, 0.8)
    check(abs(p @ gamma - 0.8) <= 1e-9 or div == 0.0,
          "tilted projection misses the halfspace boundary")
    check(optimize.divergence_bits(p, q) <= div + 1e-9,
          "tilted projection divergence inconsistent")


def _suite_b92(check: _Check, quick: bool) -> None:
    cfg = b92.B92Config(n_tot=10**6)
    povms = b92.build_povms(cfg)
    povms.validate()
    check(True, "POVM set validated")
    a2 = cfg.amp**2
    q0 = b92.expected_statistics(cfg, 0.0)
    check(abs(q0.q_fil - 2.0 * a2 * (1.0 - a2)) <= 1e-12, "q_fil(0) mismatch")
    check(q0.q_ph <= 1e-12 and q0.q_bitph <= 1e-12,
          "noiseless channel should have no phase errors")
    check(abs(q0.q_minus - a2) <= 1e-12, "q_minus(0) mismatch")
    for analysis in ("universal", "conventional"):
        budget = b92.secrecy_budget(cfg, analysis)
        eps = b92.achieved_eps_sec(budget.log2_eps1, budget.log2_eps2,
                                   cfg.n_tot, budget.s)
        check(eps <= cfg.target_eps_sec * (1.0 + 1e-9), "secrecy budget overshoots")
    rates = b92.asymptotic_rates(cfg, 0.0)
    check(abs(rates["universal"] - rates["devetakWinter"]) <= 1e-6,
          "universal asymptote != Devetak-Winter at p=0")
    check(abs(rates["conventional"] - rates["universal"]) <= 1e-6,
          "conventional != universal at p=0")


def _suite_cli(check: _Check, quick: bool) -> None:
    check(abs(parse_eps("2^-50") - 2.0**-50) == 0.0, "2^-k parsing inexact")
    check(_parse_grid("0:0.06:0.005")[-1] == 0.06, "grid endpoint missing")
    svg = render_svg({"a": [(1e6, 0.1), (1e9, 0.2)]}, "x", "y")
    check(svg.startswith("<svg") and "polyline" in svg, "SVG markup malformed")


SELFTEST_SUITES = {
    "field-weyl": _suite_field_weyl,
    "hashing": _suite_hashing,
    "schur-weyl": _suite_schur_weyl,
    "operator-division": _suite_operator_division,
    "entropies": _suite_entropies,
    "compression": _suite_compression,
    "optimize": _suite_optimize,
    "b92": _suite_b92,
    "cli": _suite_cli,
}


def cmd_selftest(args: argparse.Namespace) -> int:
    only = getattr(args, "only", None)
    quick = bool(getattr(args, "quick", False))
    names = list(SELFTEST_SUITES)
    if only:
        if only not in SELFTEST_SUITES:
            raise UsageError(f"unknown suite {only!r}; choose from {names}")
        names = [only]
    failures = 0
    for name in names:
        check = _Check()
        start = time.perf_counter()
        try:
            SELFTEST_SUITES[name](check, quick)
            status = "PASS"
        except Exception as exc:  # report and keep going
            status = f"FAIL ({exc})"
            failures += 1
        elapsed = time.perf_counter() - start
        print(f"{name:<20s} {status:<6s} {check.count:4d} checks  {elapsed:7.2f}s")
    if failures:
        print(f"{failures} suite(s) failed")
        return 2
    print("all suites passed")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ucqkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    cs = sub.add_parser("compress-sim", help="run one compression experiment")
    cs.add_argument("--n", type=int)
    cs.add_argument("--alphabet", type=int)
    cs.add_argument("--d", type=int)
    cs.add_argument("--bins-log", dest="bins_log", type=float)
    cs.add_argument("--decoder", choices=sorted(_DECODER_ALIASES))
    cs.add_argument("--family", choices=("all-surjective", "toeplitz"))
    cs.add_argument("--seed", type=int)
    cs.add_argument("--out")
    cs.add_argument("--config")
    cs.set_defaults(func=cmd_compress_sim)

    kr = sub.add_parser("keyrate", help="finite-size key-rate grid, CSV output")
    kr.add_argument("--analysis", choices=("universal", "conventional", "both"))
    kr.add_argument("--depol", help="comma list of depolarization values")
    kr.add_argument("--depol-grid", dest="depol_grid", help="start:stop:step")
    kr.add_argument("--ntot", help="comma list of total pulse counts")
    kr.add_argument("--eps-sec", dest="eps_sec", help="e.g. 2^-50")
    kr.add_argument("--eps-cor", dest="eps_cor", help="e.g. 2^-50")
    kr.add_argument("--amp", type=float)
    kr.add_argument("--alpha", help="Renyi order in (0,1), or 'auto'")
    kr.add_argument("--seed", type=int)
    kr.add_argument("--jobs", type=int)
    kr.add_argument("--out")
    kr.add_argument("--svg")
    kr.add_argument("--config")
    kr.set_defaults(func=cmd_keyrate)

    ka = sub.add_parser("keyrate-asymptotic", help="asymptotic rates, CSV output")
    ka.add_argument("--depol", help="comma list of depolarization values")
    ka.add_argument("--depol-grid", dest="depol_grid", help="start:stop:step")
    ka.add_argument("--amp", type=float)
    ka.add_argument("--seed", type=int)
    ka.add_argument("--jobs", type=int)
    ka.add_argument("--out")
    ka.add_argument("--svg")
    ka.add_argument("--config")
    ka.set_defaults(func=cmd_keyrate_asymptotic)

    st = sub.add_parser("selftest", help="run every invariant suite")
    st.add_argument("--only", help="run a single named suite")
    st.add_argument("--quick", action="store_true",
                    help="skip the slowest cases (keeps >= 90%% of checks)")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ucqkd: usage error: {exc}", file=sys.stderr)
        return 64
    except (InvariantError, DomainError, InfeasibleError) as exc:
        print(f"ucqkd: invariant violation: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"ucqkd: capacity exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
