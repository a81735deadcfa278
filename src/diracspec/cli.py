"""Batch command-line front end.

Subcommands wire the library to files: potentials travel as `x,p,q` CSV,
spectral data as JSON, and every run writes a config echo next to its
output so results can be regenerated byte-for-byte.

Exit codes: 0 success, 2 input/parse errors, 3 numerical contract
violations reported by the library.

Import rule: this module imports only the standard library at module level.
Each function imports the library modules it uses inside its body, so a
fresh interpreter running one subcommand compiles and loads only the modules
that subcommand runs (``reconstruct`` never loads ``halfaxis``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys


class CliParseError(ValueError):
    """Input file violates the expected schema."""


def _parse_json(path: str, from_dict):
    """from_dict of the JSON file at path; a file not of its form raises CliParseError naming it."""
    from .core import read_json

    obj = read_json(path)
    try:
        return from_dict(obj)
    except ValueError as exc:
        raise CliParseError(f"{path}: {exc}") from exc


def parse_spectral_json(path: str) -> SpectralData:
    """Load spectral data; a file not of SpectralData.from_dict's form raises CliParseError naming it."""
    from .eigen import SpectralData

    return _parse_json(path, SpectralData.from_dict)


def _echo_config(args: argparse.Namespace, out: str) -> None:
    from .core import write_json

    write_json({k: v for k, v in vars(args).items() if k != "func"}, out + ".config.json")


def _load_potential(args) -> PotentialMatrix:
    from .core import Grid, PotentialMatrix, read_potential_csv

    if args.input:
        return read_potential_csv(args.input)
    return PotentialMatrix.zero(Grid(0.0, math.pi, args.grid))


def _write_spectral(data: SpectralData, args) -> None:
    if args.format == "json":
        data.save(args.out)
    else:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("n,lambda,a\n")
            for n in data.ns():
                d = data.items[n]
                a = "" if d.a is None else f"{d.a:.17g}"
                fh.write(f"{n},{d.lam:.17g},{a}\n")
    _echo_config(args, args.out)


def _write_potential(pot: PotentialMatrix, args) -> None:
    from .core import write_json, write_potential_csv

    if args.format == "json":
        g = pot.domain
        x = g.nodes
        obj = {
            "x": [float(v) for v in x],
            "p": [float(v) for v in pot.sample_p(x)],
            "q": [float(v) for v in pot.sample_q(x)],
        }
        write_json(obj, args.out)
    else:
        write_potential_csv(pot, args.out)
    _echo_config(args, args.out)


# --- subcommands -------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    from .eigen import find_eigenvalues, norming_constants

    pot = _load_potential(args)
    data = find_eigenvalues(pot, args.alpha, args.beta, args.nmin, args.nmax, tol=args.tol)
    data = norming_constants(pot, args.alpha, data)
    _write_spectral(data, args)
    return 0


def _cmd_two_spectra(args) -> int:
    from .eigen import SpectralData
    from .twospectra import TwoSpectraInput, norming_from_two_spectra

    spec_a = parse_spectral_json(args.spec_a)
    spec_e = parse_spectral_json(args.spec_e)
    inp = TwoSpectraInput(spec_a, spec_e, trunc=args.trunc)
    items = {}
    for n in range(args.nmin, args.nmax + 1):
        a = norming_from_two_spectra(inp, n)
        d = spec_a.items[n]
        items[n] = type(d)(n, d.lam, a=a)
    _write_spectral(SpectralData(spec_a.angles, items), args)
    return 0


def _cmd_isospectral(args) -> int:
    from .isospectral import TSequence, shift_finite_recurrent

    pot = _load_potential(args)
    entries = {}
    for chunk in args.shift:
        m_str, _, t_str = chunk.partition("=")
        try:
            entries[int(m_str)] = float(t_str)
        except ValueError as exc:
            raise CliParseError(f"bad --shift entry {chunk!r}, expected m=t") from exc
    # the deformed potential needs only the shifted h_n: no window of eigenfunctions
    result = shift_finite_recurrent(pot, args.alpha, TSequence(entries), window=0, tol=args.tol)
    _write_potential(result.omega_t, args)
    return 0


def _cmd_reconstruct(args) -> int:
    from .core import Grid
    from .glreconstruct import reconstruct

    data = parse_spectral_json(args.spec)
    grid = Grid(0.0, math.pi, args.grid)
    pot, _ = reconstruct(data, grid, args.trunc)
    _write_potential(pot, args)
    return 0


def _cmd_surgery(args) -> int:
    from .core import Grid
    from .halfaxis import ModelSpectrum, SurgeryPlan, surgery

    plan = _parse_json(args.plan, SurgeryPlan.from_dict)
    base = ModelSpectrum.make("half_bc0", args.window)
    grid = Grid(0.0, args.xmax, args.grid)
    result = surgery(base, plan, grid)
    _write_potential(result.potential, args)
    return 0


def _cmd_evf(args) -> int:
    from .eigen import evf

    pot = _load_potential(args)
    rows = [evf(pot, g, beta=args.beta, tol=args.tol) for g in args.gamma]
    with open(args.out, "w", newline="\n") as fh:
        fh.write("gamma,lambda,alpha,m\n")
        for s in rows:
            fh.write(f"{s.gamma:.17g},{s.value:.17g},{s.alpha:.17g},{s.m}\n")
    _echo_config(args, args.out)
    return 0


def _cmd_weyl(args) -> int:
    from .core import read_potential_csv, write_json
    from .halfaxis import linear_potential, weyl_m0

    if args.input:
        pot = read_potential_csv(args.input)
        x_max = pot.domain.b
    else:
        x_max = args.xmax
        pot = linear_potential(x_max, args.grid)
    m0 = weyl_m0(pot, args.nu, args.mu, x_max=x_max, m=args.grid)
    write_json({"m0": {"im": m0.imag, "re": m0.real}}, args.out)
    _echo_config(args, args.out)
    return 0


# --- invariant suite ---------------------------------------------------------


def _invariant_suite() -> list[tuple[str, bool]]:
    import numpy as np

    from .cauchy import solve_cauchy, wronskian
    from .core import (BoundaryAngles, Grid, PotentialMatrix, Trajectory2, cumulative_c, inner_product,
                       pauli_algebra_selftest)
    from .eigen import (SpectralData, SpectralDatum, _normed_trajectories, find_eigenvalues,
                        norming_constants, parseval_defect)
    from .glreconstruct import reconstruct
    from .halfaxis import ModelSpectrum, SurgeryPlan, linear_potential, surgery, weyl_m0
    from .isospectral import omega_l1_distance, shift_one, zero_family
    from .twospectra import TwoSpectraInput, norming_from_two_spectra

    out = []

    def run(name, fn):
        try:
            out.append((name, bool(fn())))
        except Exception:
            out.append((name, False))

    g = Grid(0.0, math.pi, 512)
    zero = PotentialMatrix.zero(g)
    sinq = PotentialMatrix(None, lambda x: np.sin(x), g)

    run("core: Pauli/B algebra", pauli_algebra_selftest)
    run("core: trapezoid second order", lambda: abs(
        float(Grid(0.0, 1.0, 1000).trapezoid_weights() @ (Grid(0.0, 1.0, 1000).nodes ** 2)) - 1.0 / 3.0
    ) < 1e-6)
    run("core: cumulative_c monotone", lambda: all(
        cumulative_c(sinq, b) >= cumulative_c(sinq, a) - 1e-14
        for a, b in zip(np.linspace(0.1, 3.0, 8), np.linspace(0.2, 3.1, 8))
    ))
    x = g.nodes
    f = Trajectory2(g, np.sin(2 * x), -np.cos(2 * x))
    h = Trajectory2(g, np.sin(3 * x), -np.cos(3 * x))
    run("core: trajectory orthogonality", lambda: abs(inner_product(f, h)) < 1e-10)

    run("cauchy: Wronskian constant", lambda: wronskian(
        solve_cauchy(sinq, 1.3, 0.2), solve_cauchy(sinq, 1.3, 0.9)
    )[1] < 1e-8)

    def zero_spectrum():
        data = find_eigenvalues(zero, 0.25, 0.0, -5, 5)
        return max(abs(data.items[n].lam - (n - 0.25 / math.pi)) for n in data.ns()) < 1e-8

    run("eigen: zero-potential lattice", zero_spectrum)

    def zero_norming():
        data = find_eigenvalues(zero, 0.0, 0.0, -3, 3)
        data = norming_constants(zero, 0.0, data)
        return max(abs(data.items[n].a - math.pi) for n in data.ns()) < 1e-8

    run("eigen: zero-potential norming", zero_norming)

    def parseval():
        # the 25 eigenfunctions from one stored sweep
        data, Y = _normed_trajectories(sinq, 0.0, find_eigenvalues(sinq, 0.0, 0.0, -12, 12))
        basis = {}
        for i, (n, d) in enumerate(data.items.items()):
            s = 1.0 / math.sqrt(d.a)
            basis[n] = Trajectory2(g, s * Y[0, i], s * Y[1, i])
        probe = basis[0]
        return parseval_defect(probe, basis, 12) < 1e-6

    run("eigen: Parseval on eigenfunction", parseval)

    def lattice_two_spectra():
        eps = math.pi / 4
        mk = lambda al: find_eigenvalues(zero, al, 0.0, -60, 60)
        inp = TwoSpectraInput(mk(0.0), mk(eps), trunc=50)
        return abs(norming_from_two_spectra(inp, 0) - math.pi) < 1e-2

    run("twospectra: lattice norming", lattice_two_spectra)

    def iso_family():
        res = shift_one(zero, 0.0, 0, 0.5, window=6)
        return omega_l1_distance(res.omega_t, zero_family(0, 0.5, g)) < 1e-6

    run("isospectral: closed-form family", iso_family)

    def gl_rank_one():
        # a_1 = pi e^{-t} on the zero-potential lattice: the closed-form family
        t, grid = 0.5, Grid(0.0, math.pi, 256)
        items = {n: SpectralDatum(n, float(n), a=math.pi * (math.exp(-t) if n == 1 else 1.0))
                 for n in range(-8, 9)}
        pot, _ = reconstruct(SpectralData(BoundaryAngles.make(0.0, 0.0), items), grid, 8)
        exact = zero_family(1, t, grid)
        return max(np.max(np.abs(pot.p - exact.p)), np.max(np.abs(pot.q - exact.q))) < 1e-10

    run("glreconstruct: rank-one shift gives the closed-form family", gl_rank_one)

    def surgery_identity():
        base = ModelSpectrum.make("half_bc0", 6)
        res = surgery(base, SurgeryPlan(), Grid(0.0, 10.0, 1024))
        xs = res.potential.domain.nodes
        return float(np.max(np.abs(res.potential.sample_q(xs) - xs))) < 1e-12

    run("halfaxis: empty surgery is identity", surgery_identity)

    def weyl_limits():
        pot = linear_potential(12.0, 2048)
        return (
            abs(weyl_m0(pot, 0.0, 50.0, x_max=12.0, m=2048) - 1j) < 0.05
            and abs(weyl_m0(pot, 0.0, -50.0, x_max=12.0, m=2048) + 1j) < 0.05
        )

    run("halfaxis: Weyl half-plane limits", weyl_limits)
    return out


def _cmd_check(args) -> int:
    results = _invariant_suite()
    npass = sum(ok for _, ok in results)
    for name, ok in results:
        print(("ok   - " if ok else "FAIL - ") + name)
    print(f"passed {npass}/{len(results)} invariant checks")
    return 0 if npass == len(results) else 1


# --- parser ------------------------------------------------------------------


def _add_common(sp):
    """The output options of a command that writes spectral data or a potential."""
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    from .core import DEFAULT_M

    ap = argparse.ArgumentParser(prog="diracspec", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues and norming constants")
    sp.add_argument("--input", help="potential CSV (default: zero potential on [0, pi])")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--nmin", type=int, default=-10)
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--grid", type=int, default=DEFAULT_M, help="grid intervals m")
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("two-spectra", help="norming constants from two spectra")
    sp.add_argument("--spec-a", required=True, help="spectral JSON at angle alpha")
    sp.add_argument("--spec-e", required=True, help="spectral JSON at the second angle")
    sp.add_argument("--trunc", type=int, default=200)
    sp.add_argument("--nmin", type=int, default=0)
    sp.add_argument("--nmax", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_two_spectra)

    sp = sub.add_parser("isospectral", help="norming-constant shift flows")
    sp.add_argument("--input", help="potential CSV (default: zero potential)")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--shift", action="append", required=True, metavar="m=t",
                    help="a_m -> a_m e^(-t); write a negative m as --shift=-2=0.3")
    sp.add_argument("--grid", type=int, default=DEFAULT_M, help="grid intervals m")
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp)
    sp.set_defaults(func=_cmd_isospectral, format="csv")

    sp = sub.add_parser("reconstruct", help="potential recovery from spectral data")
    sp.add_argument("--spec", required=True, help="spectral JSON with norming constants")
    sp.add_argument("--trunc", type=int, default=200)
    sp.add_argument("--grid", type=int, default=DEFAULT_M, help="grid intervals m")
    _add_common(sp)
    sp.set_defaults(func=_cmd_reconstruct, format="csv")

    sp = sub.add_parser("surgery", help="finite spectral modification of the model operator")
    sp.add_argument("--plan", required=True, help="surgery plan JSON")
    sp.add_argument("--window", type=int, default=8)
    sp.add_argument("--xmax", type=float, default=12.0)
    sp.add_argument("--grid", type=int, default=DEFAULT_M, help="grid intervals m")
    _add_common(sp)
    sp.set_defaults(func=_cmd_surgery, format="csv")

    sp = sub.add_parser("evf", help="eigenvalue function samples, written as CSV")
    sp.add_argument("--input", help="potential CSV (default: zero potential)")
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--gamma", type=float, action="append", required=True)
    sp.add_argument("--grid", type=int, default=DEFAULT_M, help="grid intervals m")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_evf)

    sp = sub.add_parser("weyl", help="half-axis Weyl function value, written as JSON")
    sp.add_argument("--input", help="half-axis potential CSV (default: linear model)")
    sp.add_argument("--nu", type=float, default=0.0)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--xmax", type=float, default=12.0)
    sp.add_argument("--grid", type=int, default=DEFAULT_M, help="grid intervals m")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_weyl)

    sp = sub.add_parser("check", help="run the invariant suite")
    sp.set_defaults(func=_cmd_check)
    return ap


def main(argv=None) -> int:
    from .core import DiracError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (CliParseError, OSError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DiracError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
