"""Command-line frontend: one subcommand per library area.

Structured single results go to stdout as JSON from this module's own
writer, byte-identical to `json.dumps(..., sort_keys=True, indent=2)`;
grids and trajectories are CSV with a fixed column order. Floats are
emitted at full double precision (17 significant digits in CSV,
shortest round-trip form in JSON), so identical inputs yield
byte-identical outputs.

Each handler returns its result, a JSON payload or `integrate`'s CSV
text. `main` alone writes stdout, and `_write` alone writes files. It
takes bytes only: raster CSV rows are built as bytes, and JSON and
`integrate`'s CSV are encoded once before the call. It hashes each chunk
in the one pass that writes it, and a 256 KiB buffer gathers the chunks
(a 512-wide CSV row is about 20 KB) into large writes. The manifest's
digests are of the bytes on disk. JSON text is built from pieces joined
once, and a polyline's rows go through one `%r` template.

Exit codes: 0 success, 2 validation/usage error, 3 numeric or IO failure.
No JSON, on stdout or in a figure file or manifest, holds NaN or
Infinity: a non-finite result exits 3 with nothing on stdout, and a
figure's JSON is encoded before either of its files is opened.

Each subcommand imports only the modules it runs. The top of this module
loads `errors` and `params`; every other rc3bp module (`twobody`,
`triangular`, `collinear`, `stability`, `dynamics`, `regions`) is
imported inside the handler that uses it, `hashlib` inside `_write`,
`argparse` in `build_parser`, and `json` only to escape a string outside
printable ASCII. So `validate` loads nothing else, every subcommand but
`regions`, `reproduce-all` and `integrate` starts without numpy, and
`reproduce_all` as a library loads neither `argparse` nor `json`.
"""

from __future__ import annotations

import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import NumericError, Rc3bpError, ValidationError
from .params import MAX_CSV_ROWS, SystemParams

if TYPE_CHECKING:
    import argparse

    from . import regions


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _json_text(payload: dict) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)`, byte for byte, from pieces joined
    once; NumericError naming each value that is not a finite double, in written order:
    `orbit.r0`, `l4[1]`."""
    bad: list[str] = []
    out: list[str] = []

    def string(s: str) -> str:    # json's own escapes for anything but printable ASCII
        if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
            return '"' + s + '"'
        import json

        return json.dumps(s)

    def members(ends: str, items: list, nl: str) -> None:
        """A non-empty container: per (head, value, key) item its head, then its value."""
        inner = nl + "  "
        sep = ends[0] + inner
        for head, value, key in items:
            out.append(sep + head)
            text(value, key, inner)
            sep = "," + inner
        out.append(nl + ends[1])

    def text(value, key: str, nl: str) -> None:
        inner = nl + "  "
        if getattr(value, "ndim", 0) == 2 and value.dtype == float and value.shape[1]:
            # a polyline: every row through one template, unless some repr is inf or nan,
            # the only float reprs with an "n"; then the general path names the values
            cell = inner + "  %r"
            row = "[" + ",".join([cell] * value.shape[1]) + inner + "]"
            rows = ("," + inner).join([row % tuple(r) for r in value.tolist()])
            if "n" not in rows:
                out.extend(["[" + inner, rows, nl + "]"] if rows else ["[]"])
                return
        if hasattr(value, "tolist"):    # a numpy array or scalar
            value = value.tolist()
        if isinstance(value, (dict, list, tuple)) and not value:
            out.append("{}" if isinstance(value, dict) else "[]")
        elif isinstance(value, dict):
            items = sorted(value.items())
            members("{}", [(string(k) + ": ", v, f"{key}.{k}" if key else k) for k, v in items], nl)
        elif isinstance(value, (list, tuple)):
            if all([type(v) is float for v in value]) and all(map(math.isfinite, value)):
                # one join per list of finite floats
                out.extend(["[" + inner, ("," + inner).join(map(float.__repr__, value)), nl + "]"])
            else:
                members("[]", [("", v, f"{key}[{i}]") for i, v in enumerate(value)], nl)
        elif isinstance(value, str):
            out.append(string(value))
        elif isinstance(value, float):
            if not math.isfinite(value):
                bad.append(f"{key} = {float.__repr__(value)}")
            out.append(float.__repr__(value))
        elif value is None or isinstance(value, bool):
            out.append("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        else:
            raise TypeError(f"not JSON-serializable: {type(value)!r}")

    text(payload, "", "\n")
    del text, members    # closures that refer to each other: free them now, not at a collection
    if bad:
        listed = ", ".join(bad[:4]) + (f" and {len(bad) - 4} more" if len(bad) > 4 else "")
        raise NumericError(f"the result is not a finite double: {listed}")
    return "".join(out)


def _floats(names: str):
    """argparse type: comma-separated floats, one per name in `names` ("x,y")."""
    import argparse

    count = names.count(",") + 1

    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {names} but got {text!r}")
        return tuple(float(p) for p in parts)

    parse.__name__ = names    # argparse's "invalid x,y value: ..." for a non-number
    return parse


_WRITE_BUFFER = 2**18    # bytes per write: a 512-wide CSV row is about 20 KB


def _write(path: str, chunks) -> str:
    """Write the bytes chunks to path; return the SHA-256 of exactly those bytes."""
    import hashlib

    h = hashlib.sha256()
    with open(path, "wb", buffering=_WRITE_BUFFER) as fh:
        for chunk in chunks:
            h.update(chunk)
            fh.write(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> dict:
    return SystemParams(args.mu, args.beta1, args.beta2).to_dict()


def _cmd_two_body(args) -> dict:
    from . import twobody

    cfg = twobody.TwoBodyConfig(args.m1, args.m2, args.q1, args.q2, args.G, args.k)
    payload = {
        "C": cfg.C,
        "mu_red": cfg.mu_red,
        "class": twobody.classify(cfg).value,
    }
    if args.kstar is not None or args.l is not None:
        if args.kstar is None or args.l is None:
            raise ValidationError("--kstar and --l must be given together")
        orbit = twobody.hyperbolic_orbit(cfg, args.kstar, args.l)
        payload["orbit"] = orbit.to_dict()
    return payload


def _cmd_equilibria(args) -> dict:
    params = SystemParams(args.mu, args.beta1, args.beta2)
    if args.kind == "triangular":
        from .triangular import triangular_points

        pair = triangular_points(params)
        return {
            "kind": "triangular",
            "l4": list(pair.l4),
            "l5": list(pair.l5),
            "rho1": pair.rho1,
            "rho2": pair.rho2,
            "location": pair.location.value,
        }
    from . import collinear

    roots = collinear.find_collinear(params)
    predicted = {
        iv.value: collinear.predicted_root_count(params, iv).value for iv in collinear.Interval
    }
    return {
        "kind": "collinear",
        "region": collinear.classify_region(params).value,
        "predicted": predicted,
        "roots": [r.to_dict() for r in roots],
    }


def _cmd_stability(args) -> dict:
    from . import stability

    params = SystemParams(args.mu, args.beta1, args.beta2)
    if args.point is None:
        return stability.classify_triangular(params).to_dict()
    from .dynamics import potential

    s = potential(params, *args.point)
    eig = stability._hessian_eigenvalues(s.Vxx, s.Vxy, s.Vyy)
    # the theorems classify only triangular/limit points; a free point
    # gets raw eigenvalues with the classification fields left null
    return {
        "eigenvalues": [[z.real, z.imag] for z in eig],
        "F": None,
        "gamma": None,
        "classification": None,
    }


def _cmd_critical_roots(args) -> dict:
    from . import collinear

    xr1, xr2 = collinear.critical_roots(args.mu)
    payload = {"mu": args.mu, "x_r1": xr1, "x_r2": xr2}
    if args.series:
        s1, s2 = collinear.critical_roots_series(args.mu)
        payload["x_r1_series"] = s1
        payload["x_r2_series"] = s2
    return payload


def _raster_csv_lines(raster: regions.RegionRaster):
    """Yield the header, then one UTF-8 `bytes` per raster row of ``x,y,label`` lines.

    A row is its y string joined between pieces: the first x head, then per
    cell its label tail and the next x head. Every piece but the first depends
    only on (column, label), so each label's pieces are built once, as bytes,
    and a row takes one slice of them per run of equal labels; a row labelled
    as the one before it (45% of the rows at 512) takes that row's pieces.
    """
    yield b"x,y,label\n"
    x_heads = [(_fmt(xv) + ",").encode() for xv in raster.x_centers()]
    nexts = x_heads[1:] + [b""]
    pieces_of = [[f",{name}\n".encode() + head for head in nexts] for name in raster.legend]
    previous = None
    for yv, row in zip(raster.y_centers(), raster.labels):
        if (labels := row.tobytes()) != previous:
            previous = labels
            starts = [0, *((row[1:] != row[:-1]).nonzero()[0] + 1).tolist()]
            pieces = [x_heads[0]]
            for a, b, k in zip(starts, starts[1:] + [len(row)], row[starts].tolist()):
                pieces += pieces_of[k][a:b]
        yield _fmt(yv).encode().join(pieces)


def _write_figure(dataset: regions.FigureDataset, base: str) -> list[str]:
    """Write the figure to base.csv and base.json; return the SHA-256 of each file's bytes."""
    meta = _json_text(
        {
            "figure": dataset.figure,
            "parameters": dataset.parameters,
            "legend": list(dataset.raster.legend),
            "curves": dataset.curves,
        }
    )
    return [
        _write(base + ".csv", _raster_csv_lines(dataset.raster)),
        _write(base + ".json", [meta.encode(), b"\n"]),
    ]


def _cmd_regions(args) -> dict:
    from . import regions

    dataset = regions.figure_dataset(args.figure, mu=args.mu, resolution=args.resolution)
    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    _write_figure(dataset, base)
    return {"figure": args.figure, "csv": base + ".csv", "json": base + ".json"}


def _cmd_integrate(args) -> dict | str:
    from . import dynamics

    params = SystemParams(args.mu, args.beta1, args.beta2)
    state = dynamics.PhaseState(*args.state)
    sample_times = None
    if args.every is not None:
        if not (0.0 < args.every < math.inf and 0.0 < args.t_end < math.inf):
            raise ValidationError(
                f"--every and --t-end must be positive and finite, got {args.every!r} and "
                f"{args.t_end!r}"
            )
        # the multiples of --every short of --t-end, then --t-end itself: a last
        # multiple that misses --t-end by a rounding error (1e-9 of a step past
        # it, 1e-12 of it before it) is --t-end
        n = math.floor(min(args.t_end / args.every + 1e-9, MAX_CSV_ROWS))
        short = n * args.every < args.t_end * (1.0 - 1e-12)
        if n + 1 + short > MAX_CSV_ROWS:
            raise ValidationError(
                f"--t-end / --every = {args.t_end!r} / {args.every!r} asks for more than "
                f"MAX_CSV_ROWS = {MAX_CSV_ROWS} samples"
            )
        sample_times = [i * args.every for i in range(n + short)] + [args.t_end]
    traj = dynamics.integrate(params, state, args.t_end, tol=args.tol, sample_times=sample_times)
    lines = ["t,x,y,px,py,H\n"]
    for t, row, h in zip(traj.t, traj.states, traj.energy):
        lines.append(",".join(map(_fmt, (t, *row, h))) + "\n")
    if not args.out:
        return "".join(lines)
    _write(args.out, ["".join(lines).encode()])
    return {"out": args.out, "samples": len(traj.t), "reason": traj.reason}


def reproduce_all(out_dir: str, resolution: int | None = None) -> dict:
    """Regenerate every figure dataset into out_dir and write the manifest."""
    from . import regions

    regions._resolution(resolution)    # a bad resolution creates no directory
    os.makedirs(out_dir, exist_ok=True)

    entries: list[dict] = []
    for figure in regions.FIGURES:
        dataset = regions.figure_dataset(figure, resolution=resolution)
        stem = f"figure-{figure:02d}"
        digests = _write_figure(dataset, os.path.join(out_dir, stem))
        entries.extend(
            {
                "file": stem + suffix,
                "subject": f"figure-{figure}",
                "parameters": dataset.parameters,
                "sha256": digest,
            }
            for suffix, digest in zip((".csv", ".json"), digests)
        )
    entries.sort(key=lambda e: e["file"])
    manifest = {
        "artifact": "rc3bp",
        "version": __version__,
        "parameters": {"resolution": resolution or regions._DEFAULT_RESOLUTION},
        "files": entries,
    }
    _write(os.path.join(out_dir, "manifest.json"), [_json_text(manifest).encode(), b"\n"])
    return manifest


def _cmd_reproduce_all(args) -> dict:
    manifest = reproduce_all(args.out, resolution=args.resolution)
    return {
        "out": args.out,
        "files": len(manifest["files"]),
        "manifest": os.path.join(args.out, "manifest.json"),
    }


# ---------------------------------------------------------------------------
# parser


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, required=True, help="mass ratio in (0, 1)")
    p.add_argument("--beta1", type=float, required=True, help="net strength of primary 1")
    p.add_argument("--beta2", type=float, required=True, help="net strength of primary 2")


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="rc3bp",
        description="Planar circular restricted charged three-body problem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="reduce and admissibility-check parameters")
    _add_params_args(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("two-body", help="classify the charged two-body problem")
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--q2", type=float, required=True)
    p.add_argument("--G", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--kstar", type=float, default=None, help="|C| for the repulsive orbit")
    p.add_argument("--l", type=float, default=None, help="angular momentum of the relative orbit")
    p.set_defaults(func=_cmd_two_body)

    p = sub.add_parser("equilibria", help="triangular points or collinear roots")
    _add_params_args(p)
    p.add_argument("--kind", choices=("triangular", "collinear"), required=True)
    p.set_defaults(func=_cmd_equilibria)

    p = sub.add_parser("stability", help="eigenvalues and Theorem-level classification")
    _add_params_args(p)
    p.add_argument(
        "--point",
        type=_floats("x,y"),
        default=None,
        help="x,y of an arbitrary point; omit to classify the triangular pair",
    )
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("critical-roots", help="the band-terminating roots x_r1, x_r2")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--series", action="store_true", help="include the small-mu series values")
    p.set_defaults(func=_cmd_critical_roots)

    p = sub.add_parser("regions", help="figure dataset: raster CSV plus curves JSON")
    p.add_argument(
        "--figure", type=int, required=True,
        help="figure number; an unknown one exits 2 and lists the figures",
    )
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", required=True, help="output path; .csv and .json are derived")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("integrate", help="integrate the rotating-frame equations")
    _add_params_args(p)
    p.add_argument("--state", type=_floats("x,y,px,py"), required=True, help="initial x,y,px,py")
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--every", type=float, default=None, help="output sampling step")
    p.add_argument("--out", default=None, help="CSV path; stdout when omitted")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("reproduce-all", help="emit every figure dataset plus a manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resolution", type=int, default=None)
    p.set_defaults(func=_cmd_reproduce_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        sys.stdout.write(result if isinstance(result, str) else _json_text(result) + "\n")
        return 0
    except Rc3bpError as exc:
        kind = "error" if isinstance(exc, ValidationError) else "numeric failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"io failure{where}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
