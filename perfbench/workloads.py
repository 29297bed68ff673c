"""The benchmark's workloads: ``sweep``, ``large`` and ``curves``.

Each workload is a list of items: the seed shuffles the ``sweep`` orders
and generates the ``curves`` data; ``large`` is a fixed list.  A pass runs
every item once, as a closed loop with one client.
The same item code serves untraced and traced passes: it calls the public
functions of qde through ``call(span_name, fn, *args)``, which is a plain
call when untraced.  When traced, the item first calls the cached steps
below its main call in dependency order, so that every span's self time is
the work of its own layer (see README.md for what each span covers).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from qde import (
    QuadraticOrder,
    class_group_structure,
    class_number_maximal,
    class_number_order,
    cli,
    companion_tori,
    crossed_product_k0,
    endomorphism_ring,
    fundamental_unit,
    parse_theta,
    predict,
    unit_index,
)

import curvegen
from tracing import Tracer

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Span name of each public function, under the name qde.cli imports it by.
# A traced pass replaces these names in qde.cli with traced wrappers, so the
# spans inside ``qde.cli.main`` come from the benchmark, not from qde.
CLI_LAYERS = {
    "parse_theta": "quadratic.parse_theta",
    "cf_expand": "quadratic.cf_expand",
    "fundamental_unit": "quadratic.fundamental_unit",
    "class_number_maximal": "classgroup.class_number_maximal",
    "unit_index": "classgroup.unit_index",
    "class_number_order": "classgroup.class_number_order",
    "class_group_structure": "classgroup.class_group_structure",
    "companion_tori": "lattice.companion_tori",
    "endomorphism_ring": "lattice.endomorphism_ring",
    "crossed_product_k0": "ktheory.crossed_product_k0",
    "predict": "predict.predict",
    "parse_curves": "harness.parse_curves",
    "validate": "harness.validate",
}

# Sizes read off a span's arguments and result: span -> (metric, key, size).
# A size is counted once per distinct key, so a cache hit adds nothing.
SIZES = {
    "quadratic.cf_expand": (
        "quadratic.cf_expand.period_len", lambda a: a[0], lambda r: len(r.period)
    ),
    "quadratic.fundamental_unit": (
        "quadratic.fundamental_unit.unit_bits", lambda a: a[0], lambda r: r[0].x.bit_length()
    ),
    "classgroup.class_number_order": ("classgroup.h_total", lambda a: a[0], int),
    "lattice.companion_tori": ("lattice.companion_tori.count", lambda a: a[0], len),
    "harness.parse_curves": ("harness.records", lambda a: None, len),
    "harness.validate": ("harness.violations", lambda a: None, lambda r: r.violations),
}


def _span_name(base: str, args, kwargs) -> str:
    if base == "harness.parse_curves":
        return f"{base}.{kwargs.get('format', 'csv')}"
    if base == "harness.validate":
        return f"{base}.jobs{kwargs.get('jobs', 1)}"
    return base


def _untraced(base, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _traced(tracer: Tracer):
    def call(base, fn, *args, **kwargs):
        result = tracer.call(_span_name(base, args, kwargs), fn, *args, **kwargs)
        if base in SIZES:
            metric, key, size = SIZES[base]
            tracer.count(metric, key(args), size(result))
        return result

    return call


@contextlib.contextmanager
def _traced_cli(call):
    saved = {attr: getattr(cli, attr) for attr in CLI_LAYERS if hasattr(cli, attr)}

    def wrap(base, fn):
        return lambda *args, **kwargs: call(base, fn, *args, **kwargs)

    for attr, fn in saved.items():
        setattr(cli, attr, wrap(CLI_LAYERS[attr], fn))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def clear_caches() -> None:
    """Empty every functools cache in the qde package."""
    for name, module in list(sys.modules.items()):
        if name == "qde" or name.startswith("qde."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_cli(call, argv) -> tuple[int, bytes]:
    """``qde.cli.main(argv)`` with stdout captured, as one fresh ``qde`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = call("cli.main", cli.main, argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _field_disc(D: int) -> int:
    return D if D % 4 == 1 else 4 * D


def _warm_order(call, order: QuadraticOrder) -> None:
    """The cached steps under a class-group call, in dependency order."""
    call("quadratic.fundamental_unit", fundamental_unit, order.D)
    call("classgroup.class_number_maximal", class_number_maximal, order.D)
    call("classgroup.unit_index", unit_index, order)
    call("classgroup.class_number_order", class_number_order, order)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    items: list
    expected: dict  # key(item) -> the item's recorded result
    cold_items: bool = False  # empty the caches before every item
    unit_items: int = 1  # items counted per entry of ``items``
    latency_unit: str = "item"

    def key(self, item) -> str:
        raise NotImplementedError

    def run_item(self, call, item, traced: bool):
        """Run one item through ``call`` and return its comparable result."""
        raise NotImplementedError


class Sweep(Workload):
    """The paper's batch use: the conductor sweep, then the companion sweep."""

    def key(self, item) -> str:
        kind, D, f = item
        return f"{kind} D={D} f={f}"

    def run_item(self, call, item, traced):
        kind, D, f = item
        order = QuadraticOrder(D, f)
        if traced:
            _warm_order(call, order)
        if kind == "classgroup":
            if traced:  # the wide classes, so the next span is composition only
                call("lattice.companion_tori", companion_tori, order)
            structure = call("classgroup.class_group_structure", class_group_structure, order)
            return [class_number_order(order), list(structure.invariant_factors)]
        tori = call("lattice.companion_tori", companion_tori, order)
        theta = tori[0]
        if traced:
            call("lattice.endomorphism_ring", endomorphism_ring, theta)
        p = call("predict.predict", predict, theta)
        k0 = call("ktheory.crossed_product_k0", crossed_product_k0, theta)
        return [
            p.h_lambda,
            len(tori),
            _digest("\n".join(map(str, tori)).encode())[:16],
            p.rank,
            list(p.sha_structure.invariant_factors),
            k0.k0_rank,
            list(k0.galois_group.invariant_factors),
        ]


def sweep_items() -> list:
    """3,050 conductor-sweep orders (squarefree D < 500, f <= 10), then the
    955 orders of discriminant < 2000, as in the acceptance suite."""
    conductor = [("classgroup", D, f) for D in range(2, 500) if _is_squarefree(D) for f in range(1, 11)]
    companions = []
    for D in range(2, 2000):
        if _is_squarefree(D) and _field_disc(D) < 2000:
            f = 1
            while f * f * _field_disc(D) < 2000:
                companions.append(("predict", D, f))
                f += 1
    return [conductor, companions]


# (argv, warm) — warm says which cached steps a traced run computes before
# qde.cli.main: "order" the class number of the order, "wide" also its wide
# classes.  Only steps the untraced query also computes are listed.
LARGE_QUERIES = (
    (["unit", "--D", "9999907", "--json"], None),
    (["unit", "--D", "10000139"], None),
    (["classgroup", "--D", "10000019", "--max-disc", "100000000", "--json"], "wide"),
    (["classgroup", "--D", "9999907", "--max-disc", "100000000"], "wide"),
    (["classgroup", "--D", "30030", "--f", "10", "--max-disc", "100000000", "--json"], "wide"),
    (["classgroup", "--D", "5", "--f", "2000", "--max-disc", "100000000", "--json"], "wide"),
    (["companions", "--D", "2", "--f", "1000", "--max-disc", "100000000", "--json"], None),
    (["companions", "--D", "10000019", "--max-disc", "100000000", "--json"], None),
    (["k0", "--theta", "sqrt(7000003)", "--max-disc", "100000000", "--json"], "wide"),
    (["predict", "--theta", "sqrt(4000037)", "--max-disc", "100000000", "--json"], "wide"),
    (["cf", "--theta", "(3+sqrt(100000000003))/7", "--json"], None),
    (["cf", "--theta", "sqrt(1000000000039)", "--json"], None),
    (["cf", "--theta", "(1+sqrt(999999999989))/2"], None),
    # refused after the class number is computed: exit 1, nothing on stdout
    (["predict", "--theta", "sqrt(99999989)", "--json"], "order"),
)

# Left out, because their documented outcome is about to change (ROADMAP
# item 4) and the benchmark checks exact output against the recorded one:
# - companions --D 1000003 --max-disc 1000 succeeds on discriminant 4,000,012
#   although that is above --max-disc; it should be refused.
# - unit --D 1000000007 runs about 27 s and then exits 1 on Python's
#   int-to-str digit limit at print time.


class Large(Workload):
    """Single queries near or above the desk-scale bound, each as a fresh qde call."""

    def key(self, item) -> str:
        return " ".join(item[0])

    def run_item(self, call, item, traced):
        argv, warm, order = item
        if traced and warm:
            _warm_order(call, order)
            if warm == "wide":
                call("lattice.companion_tori", companion_tori, order)
        return _cli_result(*run_cli(call, argv))


def _query_order(argv) -> QuadraticOrder | None:
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--theta" in opts:
        return endomorphism_ring(parse_theta(opts["--theta"]))
    if "--D" in opts:
        return QuadraticOrder(int(opts["--D"]), int(opts.get("--f", 1)))
    return None


class Curves(Workload):
    """``qde validate --json`` on generated data, CSV and JSON, 1 and 2 jobs."""

    def __init__(self, workdir: Path):
        """Items over the files curvegen.generate wrote to ``workdir``."""
        items = [
            ["validate", "--input", str(workdir / name), "--format", fmt, "--jobs", str(jobs), "--json"]
            for fmt, name in (("csv", curvegen.CSV_NAME), ("json", curvegen.JSON_NAME))
            for jobs in (1, 2)
        ]
        expected = _cli_result(0, (workdir / curvegen.EXPECTED_NAME).read_bytes())
        super().__init__(
            items,
            {self.key(item): expected for item in items},
            unit_items=curvegen.RECORDS,
            latency_unit="validate call",
        )

    def key(self, item) -> str:
        return f"validate --format {item[4]} --jobs {item[6]} --json"

    def run_item(self, call, item, traced):
        return _cli_result(*run_cli(call, item))


def _cli_result(code: int, stdout: bytes) -> list:
    return [code, len(stdout), _digest(stdout)]


def load_expected(name: str) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[name]


def build(name: str, seed: int, workdir: Path | None, expected: dict | None = None) -> Workload:
    """The named workload, with inputs made from ``seed`` (``curves``: from the
    files already generated in ``workdir``)."""
    rng = random.Random(seed)
    if name == "sweep":
        items = []
        for phase in sweep_items():
            rng.shuffle(phase)
            items += phase
        return Sweep(items, load_expected(name) if expected is None else expected)
    if name == "large":
        # Not shuffled: peak memory depends on the query order, and the list is fixed.
        items = [(argv, warm, _query_order(argv) if warm else None) for argv, warm in LARGE_QUERIES]
        return Large(
            items, load_expected(name) if expected is None else expected, cold_items=True,
            latency_unit="query",
        )
    if name == "curves":
        return Curves(workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    wall: float  # seconds, summed over items; cache clearing between items excluded
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


def run_pass(workload: Workload, traced: bool = False) -> PassResult:
    """One pass over the workload's items; with ``traced`` every call gets a span."""
    clear_caches()
    gc.collect()
    tracer = Tracer() if traced else None
    call = _traced(tracer) if traced else _untraced
    result = PassResult(0.0, tracer=tracer)
    patch = _traced_cli(call) if traced else contextlib.nullcontext()
    with patch:
        for item in workload.items:
            if workload.cold_items:
                clear_caches()
            error = None
            start = time.perf_counter()
            try:
                if traced:
                    with tracer.span("item"):
                        got = workload.run_item(call, item, True)
                else:
                    got = workload.run_item(call, item, False)
            except Exception as exc:  # a failed item is counted and reported, not fatal
                got, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            result.latencies.append(elapsed)
            result.wall += elapsed
            result.attempted += workload.unit_items
            key = workload.key(item)
            want = workload.expected.get(key)
            if error is None and got != want:
                error = f"got {got}, expected {want}"
            if error is not None:
                result.failed += workload.unit_items
                result.failures.append(f"{key}: {error}")
    return result
