"""Seeded workloads of the benchmark: inputs, tasks and their checks.

Every workload is a fixed list of tasks built from the seed alone.  A task
calls the library the way a user would; its check runs afterwards, outside
the timed span, and uses a route independent of the one it checks.  Each
check returns a Verdict: pass or fail with a reason, plus the accuracy
witnesses (error against a reference) that feed ``accuracy_digits``.

Failure reasons listed in KNOWN_DEFECTS are defects of the library that the
benchmark counts (in ``failed`` and ``fail_ratio``) but does not hide:
  - ``root``: duplicated, missed or uncertified roots and bracket failures
    of the eigenvalue searches;
  - ``recurrent_excited``: ``general_finite_perturbation`` raises or
    disagrees with the one-shot ``surgery`` (whose spectrum checks out) on
    plans that remove or rescale an excited state; its forward Cauchy
    solutions pick up the growing mode past the turning point;
  - ``surgery_singular``: ``surgery`` reports its kernel system singular near
    the end of the grid for plans that remove two or more states.
Any other failure marks the run as incorrect.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from diracspec import cli, core, eigen, halfaxis, isospectral
from diracspec.core import (BracketFailure, ContractError, DiracError, Grid, InterlacingError, PotentialMatrix,
                            SingularSystemError)
from diracspec.eigen import SpectralData

KNOWN_DEFECTS = ("root", "recurrent_excited", "surgery_singular")
SQRT_PI = math.sqrt(math.pi)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    witnesses: dict = field(default_factory=dict)


@dataclass
class Task:
    kind: str
    group: str
    run: Callable[[dict], object]  # group state -> output
    check: Callable[[object, dict], Verdict]
    needs: str | None = None  # kind of an earlier task of the group whose output this uses


@dataclass
class Workload:
    tasks: list[Task]
    groups: dict[str, dict]  # group -> inputs copied into a fresh state each pass


class KnownDefect(Exception):
    """A library exception that a task attributes to one of KNOWN_DEFECTS."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _fail(reason: str, **witnesses) -> Verdict:
    return Verdict(False, reason, witnesses)


def classify_exception(exc: BaseException) -> str:
    """Reason tag of a library exception raised inside a task."""
    if isinstance(exc, KnownDefect):
        return exc.reason
    if isinstance(exc, (BracketFailure, InterlacingError)):
        return "root"
    if isinstance(exc, DiracError):
        return type(exc).__name__
    return "non-library " + type(exc).__name__


# --- shared helpers ----------------------------------------------------------


def _smooth_potential(rng, strength: float, m: int) -> dict:
    """Few-term trig sums for p and q whose amplitudes add up to ``strength``."""
    terms = []
    for comp in ("p", "q"):
        for _ in range(int(rng.integers(1, 3))):
            terms.append((comp, int(rng.integers(0, 4)), float(rng.uniform(0, 2 * np.pi)),
                          float(rng.uniform(0.2, 1.0))))
    total = sum(t[3] for t in terms)
    terms = [(c, k, ph, strength * w / total) for c, k, ph, w in terms]
    return {"terms": terms, "m": m, "strength": strength}


def _make_potential(spec: dict) -> PotentialMatrix:
    grid = Grid(0.0, math.pi, spec["m"])
    if spec["strength"] == 0.0:
        return PotentialMatrix.zero(grid)

    def field_of(comp):
        ts = [(k, ph, amp) for c, k, ph, amp in spec["terms"] if c == comp]
        return lambda x: sum(amp * np.cos(k * x + ph) for k, ph, amp in ts) + 0.0 * x

    return PotentialMatrix(field_of("p"), field_of("q"), grid)


def _sign_changes(pot, alpha, beta, lams: np.ndarray) -> np.ndarray:
    """Sign changes of char_function between consecutive points of lams."""
    vals = np.concatenate([
        eigen.char_function(pot, alpha, beta, lams[i:i + 512]) for i in range(0, lams.size, 512)
    ])
    s = np.signbit(vals)
    return s[1:] != s[:-1]


def _certify_spectrum(pot, alpha, beta, data: SpectralData) -> Verdict:
    """Independent certificate: gaps, roots bracketed, sign-change count on a fine mesh."""
    lams = data.lams()
    count = len(lams)
    if count > 1 and np.min(np.diff(lams)) < 1e-6:
        return _fail("root")  # duplicated root
    eps = 1e-7 * np.maximum(1.0, np.abs(lams))
    around = np.stack([lams - eps, lams + eps], axis=1).ravel()
    if not np.all(_sign_changes(pot, alpha, beta, around)[::2]):
        return _fail("root")  # a returned value is not a simple root
    gap_lo = lams[1] - lams[0] if count > 1 else 1.0
    gap_hi = lams[-1] - lams[-2] if count > 1 else 1.0
    lo = lams[0] - 0.25 * min(1.0, gap_lo)
    hi = lams[-1] + 0.25 * min(1.0, gap_hi)
    mesh = np.linspace(lo, hi, int(np.ceil((hi - lo) * 8)) + 1)  # finer than the lattice spacing
    if int(np.sum(_sign_changes(pot, alpha, beta, mesh))) != count:
        return _fail("root")  # missed or extra root inside the window
    return Verdict(True)


def _spectral_json(lams: dict, norming: dict, alpha: float, beta: float) -> dict:
    items = []
    for n in sorted(lams):
        rec = {"n": n, "lambda": lams[n]}
        if n in norming:
            rec["a"] = norming[n]
        items.append(rec)
    return {"alpha": alpha, "beta": beta, "items": items}


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


# --- direct: the regular problem on [0, pi] ----------------------------------

# (kind, m, N): every pass holds one zero potential (spectrum only, for the
# lattice witness) and three smooth ones, one per grid size, so each seed has
# the same mix of working sets and windows
DIRECT_GROUPS = [("zero", 1024, 40), ("smooth", 1024, 128), ("smooth", 2048, 48), ("smooth", 4096, 14)]


def build_direct(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    # stratified strengths over [0, 2], assigned to grids by a seeded permutation
    strata = rng.permutation(3)
    groups, tasks = {}, []
    smooth_i = 0
    for gi, (kind, m, N) in enumerate(DIRECT_GROUPS):
        if kind == "zero":
            spec = {"terms": [], "m": m, "strength": 0.0}
        else:
            lo = 2.0 * strata[smooth_i] / 3.0
            spec = _smooth_potential(rng, float(rng.uniform(lo, lo + 2.0 / 3.0)), m)
            smooth_i += 1
        alpha = float(rng.uniform(-np.pi / 2, np.pi / 2))
        beta = float(rng.uniform(-np.pi / 2, np.pi / 2))
        n0 = int(rng.integers(-N, N))  # similarity window (n0, n0 + 1)
        n1 = int(rng.integers(-N + 1, N))  # eigenfunction family n1 - 1, n1, n1 + 1
        n2 = int(rng.integers(-N, N + 1))  # gradient index
        gammas = sorted(float(g) for g in rng.uniform(-3.0, 3.0, size=3))
        coef = rng.normal(size=3)
        name = f"{kind}{gi}-m{m}"
        groups[name] = dict(spec=spec, alpha=alpha, beta=beta, N=N, n0=n0, n1=n1, n2=n2,
                            gammas=gammas, coef=coef)
        tasks.append(Task("spectrum", name, _direct_spectrum, _check_direct_spectrum))
        if kind == "zero":
            continue
        tasks += [
            Task("similarity", name, _direct_similarity, _check_similarity, needs="spectrum"),
            Task("eigenfunctions", name, _direct_family, _check_family, needs="spectrum"),
            Task("gradient", name, _direct_gradient, _check_gradient),
            Task("evf", name, _direct_evf, _check_evf),
        ]
    return Workload(tasks, groups)


def _direct_spectrum(st):
    st["pot"] = pot = _make_potential(st["spec"])
    N = st["N"]
    data = eigen.find_eigenvalues(pot, st["alpha"], st["beta"], -N, N)
    st["data"] = eigen.norming_constants(pot, st["alpha"], data)
    return st["data"]


def _check_direct_spectrum(data, st):
    v = _certify_spectrum(st["pot"], st["alpha"], st["beta"], data)
    if not v.ok or st["spec"]["strength"] != 0.0:
        return v
    delta = (st["beta"] - st["alpha"]) / np.pi
    lat = max(abs(d.lam - (n + delta)) for n, d in data.items.items())
    nrm = max(abs(d.a - np.pi) / np.pi for d in data.items.values())
    w = {"lattice": max(lat, nrm)}
    return Verdict(True, witnesses=w) if w["lattice"] < 1e-8 else _fail("lattice", **w)


def _direct_similarity(st):
    data = st["data"]
    n0 = st["n0"]
    sub = SpectralData(data.angles, {n: data.items[n] for n in (n0, n0 + 1)})
    return eigen.similarity_coefficients(st["pot"], st["alpha"], st["beta"], sub)


def _check_similarity(out, st):
    rel = max(abs(d.c ** 2 * d.a - d.b) / d.b for d in out.items.values())
    return Verdict(rel < 1e-6, "" if rel < 1e-6 else "c2a=b", {"c2a=b": rel})


def _direct_family(st):
    data, pot, n1 = st["data"], st["pot"], st["n1"]
    ns = range(n1 - 1, n1 + 2)
    basis = {n: eigen.normalized_eigenfunction(pot, st["alpha"], data.items[n].lam, data.items[n].a)
             for n in ns}
    y1 = sum(c * basis[n].y1 for c, n in zip(st["coef"], ns))
    y2 = sum(c * basis[n].y2 for c, n in zip(st["coef"], ns))
    probe = core.Trajectory2(pot.domain, y1, y2)
    return basis, probe, eigen.parseval_defect(probe, basis, max(abs(n) for n in ns))


def _check_family(out, st):
    basis, probe, defect = out
    w = probe.grid.trapezoid_weights()
    H = np.stack([np.concatenate([h.y1, h.y2]) for h in basis.values()])
    W = np.concatenate([w, w])
    gram_err = float(np.max(np.abs((H * W) @ H.T - np.eye(len(basis)))))
    rel = defect / probe.norm_sq()
    ok = gram_err < 1e-6 and rel < 1e-6
    return Verdict(ok, "" if ok else "parseval", {"parseval": max(rel, gram_err)})


def _direct_gradient(st):
    return eigen.eigen_gradient(st["pot"], st["alpha"], st["beta"], st["n2"])


def _check_gradient(out, st):
    d_beta = out[1]
    n, delta = st["n2"], 1e-4
    try:
        hi = eigen.find_eigenvalues(st["pot"], st["alpha"], st["beta"] + delta, n, n).items[n].lam
        lo = eigen.find_eigenvalues(st["pot"], st["alpha"], st["beta"] - delta, n, n).items[n].lam
    except (BracketFailure, InterlacingError):
        return _fail("root")
    err = abs((hi - lo) / (2 * delta) - d_beta) / max(1.0, abs(d_beta))
    return Verdict(err < 1e-4, "" if err < 1e-4 else "gradient")


def _direct_evf(st):
    return [eigen.evf(st["pot"], g, beta=st["beta"]) for g in st["gammas"]]


def _check_evf(samples, st):
    for s in samples:
        eps = 1e-7 * max(1.0, abs(s.value))
        if not _sign_changes(st["pot"], s.alpha, st["beta"], np.array([s.value - eps, s.value + eps]))[0]:
            return _fail("root")
    vals = [s.value for s in samples]
    # the eigenvalue function is strictly decreasing in gamma
    return Verdict(True) if all(b < a for a, b in zip(vals, vals[1:])) else _fail("root")


# --- inverse: GL recovery, two spectra and isospectral shifts via the CLI ----

INV_M = 256  # GL needs N <= m/8; the dense collocation cost grows like m^4
TWO_SPECTRA_TRUNC = 40


def build_inverse(seed: int, workdir: str) -> Workload:
    """Inputs are written to ``workdir``; this is the workload's set-up."""
    rng = np.random.default_rng([seed, 2])
    grid = Grid(0.0, math.pi, INV_M)
    groups, tasks = {}, []

    # seeded smooth potentials: CSV samples plus spectral JSON at two angles
    smooth = []
    for k, lo in enumerate((0.25, 0.625)):
        TR = TWO_SPECTRA_TRUNC
        # reference data must be right: a draw whose spectra fail the certificate
        # (the root-finding defect that ``direct`` counts) is replaced by the next
        while True:
            spec = _smooth_potential(rng, float(rng.uniform(lo, lo + 0.375)), INV_M)
            pot = _make_potential(spec)
            alpha = float(rng.uniform(-1.0, 1.0))
            eps = alpha + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.5))
            N = int(rng.integers(20, 33))
            try:
                sa = eigen.find_eigenvalues(pot, alpha, 0.0, -TR, TR)
                se = eigen.find_eigenvalues(pot, eps, 0.0, -TR, TR)
            except (BracketFailure, InterlacingError):
                continue
            if all(_certify_spectrum(pot, ang, 0.0, sp).ok for sp, ang in ((sa, alpha), (se, eps))):
                break
        sub = SpectralData(sa.angles, {n: sa.items[n] for n in range(-N, N + 1)})
        a = {n: d.a for n, d in eigen.norming_constants(pot, alpha, sub).items.items()}
        paths = {f: os.path.join(workdir, f"smooth{k}_{f}") for f in ("pot.csv", "spec_a.json", "spec_e.json")}
        core.write_potential_csv(pot, paths["pot.csv"])
        _write_json(paths["spec_a.json"], _spectral_json({n: d.lam for n, d in sa.items.items()}, a, alpha, 0.0))
        _write_json(paths["spec_e.json"], _spectral_json({n: d.lam for n, d in se.items.items()}, {}, eps, 0.0))
        smooth.append(dict(spec=spec, alpha=alpha, N=N, a=a, paths=paths,
                           lams={n: d.lam for n, d in sa.items.items() if abs(n) <= 5}))
    zero_csv = os.path.join(workdir, "zero_pot.csv")
    core.write_potential_csv(PotentialMatrix.zero(grid), zero_csv)

    def add(kind, name, run, check, **inputs):
        inputs["out"] = os.path.join(workdir, f"{name}.out")
        groups[name] = inputs
        tasks.append(Task(kind, name, run, check))

    # GL reconstruction: two lattice data sets with one shifted norming
    # constant (known closed-form potential), and the two smooth potentials
    for i in range(2):
        m_shift, t, N = int(rng.integers(-3, 4)), _shift_t(rng), int(rng.integers(20, 33))
        path = os.path.join(workdir, f"lattice{i}.json")
        lams = {n: float(n) for n in range(-N, N + 1)}
        norming = {n: np.pi * (math.exp(-t) if n == m_shift else 1.0) for n in lams}
        _write_json(path, _spectral_json(lams, norming, 0.0, 0.0))
        add("reconstruct", f"recon-lattice{i}", _cli_reconstruct, _check_recon_lattice,
            spec=path, N=N, m_shift=m_shift, t=t)
    for k, s in enumerate(smooth):
        add("reconstruct", f"recon-smooth{k}", _cli_reconstruct, _check_recon_smooth,
            spec=s["paths"]["spec_a.json"], N=s["N"], pot_spec=s["spec"])

    # two spectra: small index windows away from the truncation edge
    for k, s in enumerate(smooth):
        for j in range(4 - k):
            nmin = int(rng.integers(-3, 3))
            add("two-spectra", f"twospec{k}-{j}", _cli_two_spectra, _check_two_spectra,
                paths=s["paths"], nmin=nmin, nmax=nmin + int(rng.integers(0, 2)), a=s["a"])

    # isospectral shifts of CSV potentials: zero potential (closed form) and smooth ones
    for i in range(2):
        add("isospectral", f"iso-zero{i}", _cli_isospectral, _check_iso_zero,
            csv=zero_csv, alpha=0.0, shifts={int(rng.integers(-3, 4)): _shift_t(rng)})
    for k, s in enumerate(smooth):
        for j in range(2):
            count = int(rng.integers(1, 4))
            ns = rng.choice(np.arange(-4, 5), size=count, replace=False)
            add("isospectral", f"iso-smooth{k}-{j}", _cli_isospectral, _check_iso_smooth,
                csv=s["paths"]["pot.csv"], alpha=s["alpha"], lams=s["lams"],
                shifts={int(n): _shift_t(rng) for n in ns})
    return Workload(tasks, groups)


def _shift_t(rng) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0))


def _run_cli(argv, out) -> Path:
    code = cli.main(argv)
    if code != 0:
        raise DiracError(f"diracspec {argv[0]} exited with code {code}")
    return Path(out)


def _cli_reconstruct(st):
    return _run_cli(["reconstruct", "--spec", st["spec"], "--trunc", str(st["N"]), "--grid", str(INV_M),
                     "--format", "csv", "--out", st["out"]], st["out"])


def _interior(grid):
    # away from the ends, where the N-term truncation of the GL series
    # leaves its largest and most data-dependent error
    x = grid.nodes
    return (x >= 0.2 * np.pi) & (x <= 0.8 * np.pi)


def _check_recon_lattice(out, st):
    rec = core.read_potential_csv(out)
    exact = isospectral.zero_family(st["m_shift"], st["t"], rec.domain)
    inner = _interior(rec.domain)
    sup = float(max(np.max(np.abs(rec.p - exact.p)[inner]), np.max(np.abs(rec.q - exact.q)[inner])))
    l1 = isospectral.omega_l1_distance(rec, exact)
    w = {"gl_lattice_sup": sup, "zero_family_l1": l1}
    return Verdict(True, witnesses=w) if max(sup, l1) < 1e-6 else _fail("gl_lattice", **w)


def _check_recon_smooth(out, st):
    rec = core.read_potential_csv(out)
    exact = _make_potential(st["pot_spec"])
    x, inner = rec.domain.nodes, _interior(rec.domain)
    sup = float(max(np.max(np.abs(rec.p - exact.sample_p(x))[inner]),
                    np.max(np.abs(rec.q - exact.sample_q(x))[inner])))
    # truncation at N terms leaves 3e-3 to 1.3e-2 here; 0.1 flags a wrong recovery
    return Verdict(sup < 0.1, "" if sup < 0.1 else "gl_smooth", {"gl_smooth_sup": sup})


def _cli_two_spectra(st):
    p = st["paths"]
    return _run_cli(["two-spectra", "--spec-a", p["spec_a.json"], "--spec-e", p["spec_e.json"],
                     "--trunc", str(TWO_SPECTRA_TRUNC), f"--nmin={st['nmin']}", f"--nmax={st['nmax']}",
                     "--out", st["out"]], st["out"])


def _check_two_spectra(out, st):
    got = SpectralData.load(out)
    rel = max(abs(got.items[n].a - st["a"][n]) / st["a"][n] for n in range(st["nmin"], st["nmax"] + 1))
    # the truncated product converges like 1/N; 0.1 flags a wrong recovery
    return Verdict(rel < 0.1, "" if rel < 0.1 else "two_spectra", {"two_spectra_rel": rel})


def _cli_isospectral(st):
    argv = ["isospectral", "--input", st["csv"], f"--alpha={st['alpha']!r}", "--format", "csv",
            "--out", st["out"]]
    argv += [f"--shift={n}={t!r}" for n, t in st["shifts"].items()]
    return _run_cli(argv, st["out"])


def _check_iso_zero(out, st):
    res = core.read_potential_csv(out)
    ((m_shift, t),) = st["shifts"].items()
    l1 = isospectral.omega_l1_distance(res, isospectral.zero_family(m_shift, t, res.domain))
    return Verdict(True, witnesses={"zero_family_l1": l1}) if l1 < 1e-6 else _fail("isospectral", zero_family_l1=l1)


def _check_iso_smooth(out, st):
    res = core.read_potential_csv(out)
    # the spectrum is frozen: compare with the input potential's eigenvalues
    new = eigen.find_eigenvalues(res, st["alpha"], 0.0, -5, 5)
    drift = max(abs(new.items[n].lam - st["lams"][n]) for n in range(-5, 6))
    # the shift formulas are exact in the continuum; sampling at m = 256 leaves ~2e-5
    if drift > 1e-4:
        return _fail("isospectral", spectrum_drift=drift)
    if len(st["shifts"]) > 1:
        # the recurrent route (CLI) against the one-shot rank-k route
        src = core.read_potential_csv(st["csv"])
        ref = isospectral.shift_finite_explicit(src, st["alpha"], isospectral.TSequence(st["shifts"]))
        d = float(max(np.max(np.abs(res.p - ref.omega_t.p)), np.max(np.abs(res.q - ref.omega_t.q))))
        # both routes are exact in the continuum; at m = 256 they differ by ~4e-6
        if d > 1e-4:
            return _fail("isospectral", explicit_route=d)
    return Verdict(True)


# --- halfaxis: the model q = x, surgery plans, Weyl function ----------------

HALF_M = 1024  # backward sweeps and eigenvalue scans
SURGERY_M = 2048  # surgery grid on [0, 12]
X_MAX = 12.0
EVF_DELTA = 1e-3


def build_halfaxis(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    base = halfaxis.ModelSpectrum.make("half_bc0", 8)
    groups, tasks = {}, []

    # model group: Weyl function at seeded points, and the eigenvalue function
    # at -delta and +delta (slope witness)
    weyl_pts = [(float(rng.uniform(-3, 3)), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 20.0)))
                for _ in range(9)]
    groups["model"] = {}
    for i, (nu, mu) in enumerate(weyl_pts):
        tasks.append(Task("weyl", "model", _weyl_task(nu, mu), _check_weyl))
    for i, g in enumerate((-EVF_DELTA, EVF_DELTA)):
        tasks.append(Task("evf", "model", _evf_task(i, g), _check_half_evf))

    # surgery plans: the ground-state removal (erfc closed form), then a
    # seeded plan of 1-3 removals, rescalings or additions
    plans = [halfaxis.SurgeryPlan(removals=frozenset({0})), _seeded_plan(rng, base)]
    for i, plan in enumerate(plans):
        name = f"plan{i}"
        groups[name] = {"plan": plan, "base": base}
        tasks += [
            Task("surgery", name, _half_surgery, _check_surgery),
            Task("recurrent", name, _half_recurrent, _check_recurrent, needs="surgery"),
            Task("eigenvalues", name, _half_eigenvalues, _check_half_eigenvalues, needs="surgery"),
        ]
    return Workload(tasks, groups)


def _seeded_plan(rng, base):
    lams = [base.lams[k] for k in range(-2, 3)]
    removals, additions, rescalings = set(), [], []
    entries = int(rng.integers(1, 4))
    while len(removals) + len(additions) + len(rescalings) < entries:
        kind = rng.choice(["remove", "rescale", "add"])
        n = int(rng.integers(-2, 3))
        if kind == "remove" and n not in removals and n not in dict(rescalings):
            removals.add(n)
        elif kind == "rescale" and n not in removals and n not in dict(rescalings):
            rescalings.append((n, base.norming[n] * float(rng.uniform(0.4, 2.5))))
        else:
            mu = float(rng.uniform(-2.6, 2.6))
            if all(abs(mu - v) > 0.25 for v in lams + [a for a, _ in additions]):
                additions.append((mu, float(rng.uniform(0.5, 2.0))))
    return halfaxis.SurgeryPlan(frozenset(removals), tuple(additions), tuple(rescalings))


def _model(x_max=X_MAX):
    return halfaxis.linear_potential(x_max, HALF_M)


def _weyl_task(nu, mu):
    def run(st):
        return (nu, mu, halfaxis.weyl_m0(_model(), nu, mu, x_max=X_MAX, m=HALF_M))
    return run


def _check_weyl(out, st):
    nu, mu, m0 = out
    # Herglotz sign, and a second truncation point as an independent route
    other = halfaxis.weyl_m0(_model(X_MAX + 1.0), nu, mu, x_max=X_MAX + 1.0, m=HALF_M)
    ok = np.sign(m0.imag) == np.sign(mu) and abs(m0 - other) < 1e-5 * (1.0 + abs(m0))
    return Verdict(bool(ok), "" if ok else "weyl")


def _evf_task(i, g):
    def run(st):
        val = halfaxis.evf_halfaxis(_model(), g, x_max=X_MAX, m=HALF_M)
        st[f"evf{i}"] = val
        return (i, g, val)
    return run


def _check_half_evf(out, st):
    i, g, val = out
    # interlacing with the closed-form branches at alpha = 0 and alpha = pi/2
    if not ((-math.sqrt(2.0) < val < 0.0) if g > 0 else (0.0 < val < math.sqrt(2.0))):
        return _fail("evf")
    if i == 0:
        return Verdict(True)
    # slope of the eigenvalue function at 0 is -1/a_0 = -2/sqrt(pi)
    err = abs((val - st["evf0"]) / (2 * EVF_DELTA) + 2.0 / SQRT_PI)
    return Verdict(True, witnesses={"evf_slope": err}) if err < 1e-3 else _fail("evf", evf_slope=err)


def _half_surgery(st):
    try:
        st["surgery"] = halfaxis.surgery(st["base"], st["plan"], Grid(0.0, X_MAX, SURGERY_M))
    except SingularSystemError as exc:
        if len(st["plan"].removals) >= 2:
            raise KnownDefect("surgery_singular") from exc
        raise
    return st["surgery"]


def _touches_excited_state(plan) -> bool:
    """Does the plan remove or rescale an eigenvalue other than the ground state?"""
    return any(z != 0 for z in plan.removals) or any(n != 0 for n, _ in plan.rescalings)


def _check_surgery(res, st):
    pot = res.potential
    if not (np.all(np.isfinite(pot.p)) and np.all(np.isfinite(pot.q))):
        return _fail("surgery")
    if st["plan"] != halfaxis.SurgeryPlan(removals=frozenset({0})):
        return Verdict(True)
    # ground-state removal: q = x - e^{-x^2} / (sqrt(pi)/2 erfc(x))
    xs = pot.domain.nodes
    inner = xs <= 5.5
    den = 0.5 * SQRT_PI * np.array([math.erfc(x) for x in xs[inner]])
    err = float(max(np.max(np.abs(pot.q[inner] - (xs[inner] - np.exp(-xs[inner] ** 2) / den))),
                    np.max(np.abs(pot.p[inner]))))
    # the trapezoid prefix integrals make this O(h^2): about 4e-3 at m = 2048
    return Verdict(True, witnesses={"erfc": err}) if err < 1e-2 else _fail("surgery", erfc=err)


def _half_recurrent(st):
    grid = Grid(0.0, X_MAX, SURGERY_M)
    steps = halfaxis.plan_steps(st["base"], st["plan"])
    try:
        return halfaxis.general_finite_perturbation(halfaxis.linear_potential(X_MAX, SURGERY_M), 0.0, steps)
    except ContractError as exc:
        if _touches_excited_state(st["plan"]):
            raise KnownDefect("recurrent_excited") from exc
        raise


def _check_recurrent(rec, st):
    one = st["surgery"].potential
    inner = one.domain.nodes <= 5.5
    d = float(max(np.max(np.abs(one.q - rec.q)[inner]), np.max(np.abs(one.p - rec.p)[inner])))
    # the routes' discretizations differ by up to ~1e-3 at m = 2048; the defect is O(1)
    if d < 1e-2:
        return Verdict(True, witnesses={"one_shot_vs_recurrent": d})
    known = _touches_excited_state(st["plan"])
    return _fail("recurrent_excited" if known else "recurrent", one_shot_vs_recurrent=d)


def _half_eigenvalues(st):
    return halfaxis.halfaxis_eigenvalues(st["surgery"].potential, 0.0, -3.0, 3.0, x_max=X_MAX, m=HALF_M)


def _check_half_eigenvalues(roots, st):
    base, plan = st["base"], st["plan"]
    # model eigenvalues 2 sign(k) sqrt|k|, minus removals, plus additions
    want = sorted([base.lams[k] for k in range(-2, 3) if k not in plan.removals]
                  + [mu for mu, _ in plan.additions])
    if len(roots) != len(want):
        return _fail("root")
    err = float(max(abs(a - b) for a, b in zip(roots, want)))
    # up to ~1e-3 from sampling the edited potential at m = 2048 and sweeping at m = 1024
    return Verdict(True, witnesses={"model_2sqrtk": err}) if err < 1e-2 else _fail("surgery", model_2sqrtk=err)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "direct":
        return build_direct(seed)
    if name == "inverse":
        return build_inverse(seed, workdir)
    if name == "halfaxis":
        return build_halfaxis(seed)
    raise ValueError(f"unknown workload {name!r}")

