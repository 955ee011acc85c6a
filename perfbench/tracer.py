"""Outside-in layer tracer.

Wraps named functions of the program with timing spans, from the
benchmark's own files; nothing inside the program changes.  Each wrapped
function is replaced at every binding that holds it in any `latvoa`
module, because modules import functions by name (`from .lattice import
points_within`), and patching only the defining module would leave those
callers untraced.  A missing function is an error, never a silent skip.

A span's self time is its duration minus the durations of the spans
nested directly inside it.  Counter hooks run outside the spans and their
cost is charged to nobody's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


class TracerError(RuntimeError):
    """A traced name no longer exists in the program."""


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, span: str, fn, hook=None):
        """fn with a span named `span` around it.  hook(bound_args, result)
        runs after the span closes."""
        stats = self.spans.setdefault(span, SpanStats())
        signature = inspect.signature(fn) if hook else None
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook_start = clock()
                hook(signature.bind(*args, **kwargs).arguments, return_value)
                if stack:
                    # the enclosing span does not pay for the hook either
                    stack[-1][0] += clock() - hook_start
            return return_value

        return traced

    def patch(self, target: str, span: str, hook=None, package: str = "latvoa") -> int:
        """Wrap `package.<module>.<name>` (or `<module>.<Class>.<method>`)
        at every binding; returns how many bindings were replaced."""
        module_name, _, attr_path = target.partition(".")
        module = sys.modules.get(f"{package}.{module_name}")
        if module is None:
            raise TracerError(f"{package}.{module_name} is not imported; cannot trace {target}")
        owner = module
        *owners, name = attr_path.split(".")
        try:
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except AttributeError:
            raise TracerError(f"{package}.{target} no longer exists; update the tracer") from None
        if not callable(original):
            raise TracerError(f"{package}.{target} is not callable")
        wrapped = self.wrap(span, original, hook)
        if owners:
            bindings = [(owner, name)]
        else:
            bindings = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for holder, key in bindings:
            self._restore.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapped)
        return len(bindings)

    def unpatch(self) -> None:
        while self._restore:
            holder, key, value = self._restore.pop()
            setattr(holder, key, value)


# --- the program's layers -------------------------------------------------


def _matrix_hook(tracer: Tracer):
    def hook(args, result):
        a = args["a"]
        rows = len(a)
        cols = len(a[0]) if a else (args.get("ncols") or 0)
        tracer.count("linalg.elim_rows", rows)
        tracer.count("linalg.elim_cols", cols)
        tracer.count("linalg.elim_cells", rows * cols)
        tracer.count("linalg.elim_nonzeros", sum(1 for row in a for x in row if x))
        tracer.count("linalg.nullity_total", len(result))

    return hook


def _enum_hook(tracer: Tracer):
    seen: set = set()

    def hook(args, result):
        key = (
            tuple(args["rep"].coords),
            tuple(tuple(b.coords) for b in args["basis"]),
            tuple(args["center"].coords),
            args["max_norm2"],
        )
        seen.add(key)
        tracer.counters["lattice.enum_distinct"] = len(seen)
        tracer.count("lattice.enum_points", len(result))

    return hook


def _basis_hook(tracer: Tracer):
    def hook(_args, result):
        tracer.count("screening.basis_dim_total", result.dim)

    return hook


def install(tracer: Tracer) -> dict[str, int]:
    """Trace every layer of the program; returns bindings patched per target."""
    plan = [
        ("lattice.points_within", "lattice.enum", _enum_hook(tracer)),
        ("lattice.ScreeningLattices.__init__", "lattice.build", None),
        ("lattice.quotient_group", "lattice.build", None),
        ("screening.layer_basis", "screening.basis", _basis_hook(tracer)),
        ("screening.apply_screening", "screening.apply", None),
        ("screening.kernel_layer", "screening.kernel", None),
        ("vertexop.residue_op", "vertexop.residue", None),
        ("linalg.nullspace", "linalg.elim", _matrix_hook(tracer)),
        ("characters.theta_coset", "characters.theta", None),
        ("characters.eta_inverse_power", "characters.series", None),
        ("characters.sf_characters", "characters.series", None),
        ("virasoro.virasoro_modes", "virasoro.modes", None),
        ("virasoro.virasoro_mode", "virasoro.modes", None),
        ("virasoro.commutator_check", "virasoro.check", None),
        ("cli.main", "cli.main", None),
    ]
    return {target: tracer.patch(target, span, hook) for target, span, hook in plan}


# module-level caches read at the end of a pass: metric -> (module, name)
CACHES = {
    "cache.split_entries": ("freefield", "_SPLIT_CACHE"),
    "cache.dk_entries": ("vertexop", "_DK_CACHE"),
    "cache.match_entries": ("vertexop", "_MATCH_CACHE"),
    "cache.fast_entries": ("virasoro", "_FAST_CACHE"),
    "cache.ginv_entries": ("virasoro", "_GINV_CACHE"),
}


def cache_sizes() -> dict[str, int]:
    sizes = {}
    for metric, (module_name, name) in CACHES.items():
        cache = getattr(sys.modules.get(f"latvoa.{module_name}"), name, None)
        if cache is None:
            raise TracerError(f"latvoa.{module_name}.{name} no longer exists; update the tracer")
        sizes[metric] = len(cache)
    return sizes


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, by metric name."""

    def span(name):
        return tracer.spans.get(name, SpanStats())

    c = tracer.counters
    enum = span("lattice.enum")
    elim = span("linalg.elim")
    cells = c.get("linalg.elim_cells", 0)
    distinct = c.get("lattice.enum_distinct", 0)
    return {
        "lattice.enum_s": enum.self_s,
        "lattice.enum_calls": enum.calls,
        "lattice.enum_points": c.get("lattice.enum_points", 0),
        "lattice.enum_repeat_ratio": enum.calls / distinct if distinct else 0.0,
        "lattice.build_s": span("lattice.build").self_s,
        "screening.basis_s": span("screening.basis").self_s,
        "screening.basis_calls": span("screening.basis").calls,
        "screening.basis_dim_total": c.get("screening.basis_dim_total", 0),
        "screening.apply_s": span("screening.apply").self_s,
        "screening.apply_calls": span("screening.apply").calls,
        "vertexop.residue_s": span("vertexop.residue").self_s,
        "vertexop.residue_calls": span("vertexop.residue").calls,
        "screening.kernel_self_s": span("screening.kernel").self_s,
        "linalg.elim_s": elim.self_s,
        "linalg.elim_calls": elim.calls,
        "linalg.elim_rows": c.get("linalg.elim_rows", 0),
        "linalg.elim_cols": c.get("linalg.elim_cols", 0),
        "linalg.elim_nonzeros": c.get("linalg.elim_nonzeros", 0),
        "linalg.elim_density": c.get("linalg.elim_nonzeros", 0) / cells if cells else 0.0,
        "linalg.nullity_total": c.get("linalg.nullity_total", 0),
        "characters.theta_self_s": span("characters.theta").self_s,
        "characters.series_s": span("characters.series").self_s,
        "virasoro.modes_s": span("virasoro.modes").self_s,
        "virasoro.modes_calls": span("virasoro.modes").calls,
        "virasoro.check_self_s": span("virasoro.check").self_s,
        "cli.self_s": span("cli.main").self_s,
    }
