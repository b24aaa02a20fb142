"""Command line front end.

Subcommands reproduce the reference eigenvalue-count tables, run alpha
scans, classify built-in charts, and cross-check the determinant and
transform identities.  Reports are emitted as markdown or CSV, to stdout or
a file.  Exit codes: 0 success, 2 validation error (a szegolab error other
than an accuracy failure, or an unreadable file), 3 accuracy failure,
4 golden-table mismatch.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import AccuracyError, DomainError, SzegolabError
from .geometry import CHART_NAMES, classify, make_chart, pullback_forms, skew_half_spectrum
from .hessdet import (
    BlockHessianSpec,
    build_block_matrix,
    det_direct,
    det_via_polynomial,
    random_metric_pair,
    sqrt_det_from_spectrum,
)
from .specfun import WeightedModel
from .szego import (
    convergence_scan,
    poly_phi,
    power_phi,
    q_transform,
    QTransformSpec,
)
from .toeplitz import CircleSymbolModel, composition_trace_quadrature, explicit_trace

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ACCURACY = 3
EXIT_GOLDEN = 4

# Reference tables: radius, closed counting interval, and the published
# columns (counts exact; predicted counts printed truncated to 2 decimals;
# scaled counts quoted to 4-5 significant digits).
GOLDEN_TABLE1 = dict(
    r=0.5, t1=16.0 / 15.0, t2=16.0 / 9.0,
    alphas=(100.0, 500.0, 1e3, 5e3, 1e4, 5e4, 1e5),
    counts=(14, 30, 42, 95, 134, 301, 426),
    predicted=(13.47, 30.13, 42.61, 95.29, 134.76, 301.35, 426.17),
    scaled=(2.4814, 2.378, 2.3541, 2.3813, 2.3750, 2.3859, 2.3877),
)
GOLDEN_TABLE2 = dict(
    r=1.0 / math.sqrt(2.0), t1=0.4, t2=0.6,
    alphas=(100.0, 500.0, 1e3, 5e3, 1e4, 5e4, 1e5),
    counts=(5, 12, 18, 39, 56, 125, 177),
    predicted=(5.60, 12.52, 17.71, 39.61, 56.02, 125.28, 177.17),
    scaled=(0.8862, 0.9511, 1.0088, 0.9775, 0.9925, 0.9908, 0.9920),
)
PRED_TOL = 5e-3
SCALED_TOL = 5e-4

FORMATS = ("md", "csv")

QCHECK_GRID = dict(powers=(0.3, 1.0, 2.0, 5.0), orders=(0.5, 1.0, 1.5),
                   points=(0.1, 1.0, 7.0), tol=1e-8)


def truncate(x: float, decimals: int) -> float:
    """Chop toward zero at the given number of decimals (table convention)."""
    scale = 10.0 ** decimals
    return math.trunc(x * scale) / scale


def _fmt(x, float_spec: str) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(x, float_spec)


def emit(headers, rows, fmt: str, out_path):
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(_fmt(c, ".17g") for c in row) for row in rows]
    else:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        lines += ["| " + " | ".join(_fmt(c, ".5g") for c in row) + " |" for row in rows]
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_number(text: str, caster, what: str):
    """caster(text), with a malformed number reported as a DomainError."""
    try:
        return caster(text)
    except ValueError:
        raise DomainError(f"could not parse {what} {text!r}") from None


def parse_phi(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "pow":
        return power_phi(parse_number(rest, float, "power"))
    if kind == "poly":
        return poly_phi([parse_number(c, float, "coefficient")
                         for c in rest.split(",") if c.strip()])
    raise DomainError(f"unknown phi spec {spec!r}; use pow:<p> or poly:<c1,c2,...>")


def load_config(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; no sections; keys are flag names."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def apply_config(args: argparse.Namespace, config: dict, defaults: dict) -> None:
    """Set each flag the command reads and the user did not pass: from the
    config file, else its default.  Config values are typed and
    choice-checked from ``FLAGS``; a key the command does not read is refused."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise DomainError(f"config keys not read by {args.command}: {', '.join(unknown)}")
    for key, value in defaults.items():
        if key in config:
            value = parse_number(config[key], FLAGS[key]["type"], f"config {key}")
            choices = FLAGS[key].get("choices")
            if choices and value not in choices:
                raise DomainError(f"config {key} must be one of {', '.join(choices)}, "
                                  f"got {value!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def parse_alpha_list(text: str):
    values = [parse_number(a, float, "alpha") for a in text.split(",") if a.strip()]
    if not values:
        raise DomainError("alpha list is empty")
    return values


def cmd_table(golden: dict, args) -> int:
    template = CircleSymbolModel(r=golden["r"], alpha=golden["alphas"][0])
    rows = convergence_scan(template, golden["alphas"],
                            interval=(golden["t1"], golden["t2"]))
    table = []
    failures = []
    for row, want_n, want_pred, want_scaled in zip(
            rows, golden["counts"], golden["predicted"], golden["scaled"]):
        pred_display = truncate(row.rhs_asymptotic_count, 2)
        if args.format == "csv":
            table.append((row.alpha, row.count_n, row.rhs_asymptotic_count,
                          row.lhs_scaled))
        else:
            # Display convention of the reference tables: predicted counts
            # chopped at 2 decimals, scaled counts at 4.
            table.append((f"{row.alpha:g}", str(row.count_n),
                          f"{pred_display:.2f}",
                          f"{truncate(row.lhs_scaled, 4):.4f}"))
        if row.count_n != want_n:
            failures.append(f"alpha={row.alpha:g}: count {row.count_n} != {want_n}")
        if abs(pred_display - want_pred) > PRED_TOL:
            failures.append(f"alpha={row.alpha:g}: predicted {pred_display} "
                            f"vs {want_pred}")
        if abs(row.lhs_scaled - want_scaled) > SCALED_TOL:
            failures.append(f"alpha={row.alpha:g}: scaled {row.lhs_scaled:.6f} "
                            f"vs {want_scaled}")
    emit(("alpha", "count", "predicted_count", "scaled_count"),
         table, args.format, args.out)
    if failures:
        print("golden mismatches:", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return EXIT_GOLDEN
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.r is None:
        raise DomainError("scan requires --r")
    if args.alpha is None:
        raise DomainError("scan requires --alpha")
    alphas = parse_alpha_list(args.alpha)
    template = CircleSymbolModel(r=args.r, alpha=alphas[0])
    phi = None if args.phi is None else parse_phi(args.phi)
    interval = None if args.t1 is None and args.t2 is None else (args.t1, args.t2)
    if phi is None and (interval is None or None in interval):
        raise DomainError("scan needs --phi or both --t1 and --t2")
    # convergence_scan refuses a phi together with an interval
    rows = convergence_scan(template, alphas, phi=phi, interval=interval)
    if phi is not None:
        emit(("alpha", "lhs_scaled", "rhs_limit"),
             [(r.alpha, r.lhs_scaled, r.rhs_limit) for r in rows],
             args.format, args.out)
    else:
        emit(("alpha", "count", "predicted_count", "scaled_count", "limit"),
             [(r.alpha, r.count_n, r.rhs_asymptotic_count, r.lhs_scaled,
               r.rhs_limit) for r in rows],
             args.format, args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.chart is None:
        raise DomainError("classify requires --chart")
    chart = make_chart(args.chart, radius=args.r)
    model = WeightedModel(n=chart.n, alpha=0.0)
    probes = [np.full(chart.d, 0.37), np.full(chart.d, 0.61),
              np.linspace(0.25, 0.75, chart.d)]
    results = [classify(pullback_forms(model, chart, t), chart.n, chart.d, args.tol)
               for t in probes]
    tags = {res.tag for res in results}
    if len(tags) > 1:
        print(f"{args.chart}: classification varies across probe points: "
              f"{sorted(tags)}", file=sys.stderr)
        return EXIT_ACCURACY
    print(results[0].describe())
    return EXIT_OK


def cmd_hessdet(args) -> int:
    d, m = args.d, args.m
    if args.seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {args.seed}")
    g, h = random_metric_pair(d, np.random.default_rng(args.seed))
    w = np.linalg.solve(g, h)
    spec = BlockHessianSpec(m=m, W=w)
    direct = det_direct(build_block_matrix(spec))
    poly = det_via_polynomial(spec)
    lams = skew_half_spectrum(g, h)
    from_spectrum = sqrt_det_from_spectrum(m, d, lams) ** 2
    values = [direct, poly, complex(from_spectrum)]
    spread = max(abs(a - b) for a in values for b in values) / abs(direct)
    emit(("method", "value_re", "value_im"),
         [("lu", direct.real, direct.imag),
          ("ring_polynomial", poly.real, poly.imag),
          ("eigenvalue_product", from_spectrum, 0.0),
          ("max_rel_spread", spread, 0.0)],
         args.format, args.out)
    return EXIT_OK if spread < 1e-9 else EXIT_ACCURACY


def cmd_qcheck(args) -> int:
    grid = QCHECK_GRID
    rows = []
    worst = 0.0
    for p in grid["powers"]:
        for eps in grid["orders"]:
            computed = q_transform(QTransformSpec(epsilon=eps, phi=power_phi(p)),
                                   np.array(grid["points"]))
            for t, got in zip(grid["points"], computed.tolist()):
                want = t ** p / p ** eps
                rel = abs(got - want) / abs(want)
                worst = max(worst, rel)
                rows.append((p, eps, t, got, want, rel))
    rows.append(("worst", "", "", "", "", worst))
    emit(("p", "order", "t", "computed", "exact", "rel_err"),
         rows, args.format, args.out)
    return EXIT_OK if worst <= grid["tol"] else EXIT_ACCURACY


def cmd_trace_compare(args) -> int:
    alphas = parse_alpha_list(args.alpha)
    if len(alphas) != 1:
        raise DomainError(f"trace-compare takes one alpha, got {args.alpha!r}")
    alpha, m = alphas[0], args.m
    if not 0.0 < args.tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {args.tol}")
    model = CircleSymbolModel(r=args.r, alpha=alpha)
    # The eigenvalue side first: past its window cap it fails before the
    # quadrature runs.  sum d^m = (2 pi alpha)^(m/2) sum lambda^m over the
    # normalized eigenvalues lambda.
    eig_trace = explicit_trace(model, power_phi(m))
    try:
        eig_sum = (2.0 * math.pi * alpha) ** (m / 2) * eig_trace
    except OverflowError:  # the float power, past the float range
        eig_sum = math.inf
    if not math.isfinite(eig_sum):
        raise DomainError(f"eigenvalue sum of power {m} exceeds the float range")
    quad = composition_trace_quadrature(model, m)
    rel = abs(quad - eig_sum) / abs(eig_sum)
    emit(("quantity", "value"),
         [("quadrature", quad), ("eigenvalue_sum", eig_sum), ("rel_diff", rel)],
         args.format, args.out)
    return EXIT_OK if rel <= args.tol else EXIT_ACCURACY


# Every flag once: its type, choices and help.  A config key is a flag's name,
# read with the same type and choices.
FLAGS = {
    "r": dict(type=float, help="circle/chart radius in (0,1)"),
    "alpha": dict(type=str, help="weight alpha (scan: a comma-separated list)"),
    "t1": dict(type=float, help="counting interval lower end"),
    "t2": dict(type=float, help="counting interval upper end"),
    "phi": dict(type=str, help="pow:<p> or poly:<c1,c2,...>"),
    "chart": dict(type=str, choices=CHART_NAMES, help="built-in chart name"),
    "m": dict(type=int, help="composition length / block count"),
    "d": dict(type=int, help="block dimension"),
    "seed": dict(type=int, help="RNG seed"),
    "tol": dict(type=float, help="tolerance"),
    "format": dict(type=str, choices=FORMATS, help="output format"),
    "out": dict(type=str, help="write the report here (default stdout)"),
}


# Each command: help, handler, and the flags it reads with their defaults
# (None: unset).  Each subcommand takes exactly these flags plus --config.
REPORT = dict(format="md", out=None)
COMMANDS = {
    "table1": ("reproduce the r=1/2 eigenvalue-count table",
               lambda args: cmd_table(GOLDEN_TABLE1, args), REPORT),
    "table2": ("reproduce the r=1/sqrt(2) eigenvalue-count table",
               lambda args: cmd_table(GOLDEN_TABLE2, args), REPORT),
    "scan": ("alpha scan of scaled traces or counts", cmd_scan,
             dict(r=None, alpha=None, t1=None, t2=None, phi=None, **REPORT)),
    "classify": ("symplectic classification of a built-in chart", cmd_classify,
                 dict(chart=None, r=0.5, tol=1e-4)),
    "hessdet": ("three evaluations of the block-Hessian determinant", cmd_hessdet,
                dict(d=2, m=4, seed=0, **REPORT)),
    "qcheck": ("fractional-transform monomial identity check", cmd_qcheck, REPORT),
    "trace-compare": ("composition-trace quadrature vs eigenvalue sums", cmd_trace_compare,
                      dict(r=0.5, m=2, alpha="50", tol=1e-5, **REPORT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegolab", allow_abbrev=False,
        description="Toeplitz spectra on the weighted ball: tables, scans, checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _, defaults) in COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        for key, default in defaults.items():
            flag = FLAGS[key]
            text = flag["help"] if default is None else f"{flag['help']} (default {default})"
            cmd.add_argument(f"--{key}", type=flag["type"], choices=flag.get("choices"), help=text)
        cmd.add_argument("--config", type=str, help="key=value defaults file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _, run, defaults = COMMANDS[args.command]
        apply_config(args, load_config(args.config) if args.config else {}, defaults)
        return run(args)
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (SzegolabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
