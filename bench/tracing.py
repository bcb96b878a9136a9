"""Per-layer timing for the traced benchmark run.

The package's modules import each other's functions by name, so a wrapper
only sees the calls that go through the namespace it is patched into:
``sim.max_lvr`` rather than ``cfmm.max_lvr``, ``engine.clearing_price_with_limits``
rather than the one in ``allocation``. Methods are patched on their class.
Nothing in ``src/`` changes; the wrappers live only while a ``Tracer`` is
installed.

Each wrapper counts calls and accumulates inclusive time and self time. A
call's self time is its duration minus the durations of the wrapped calls it
made, so the self times of nested wrapped calls add up to the outermost
inclusive time.
"""
from __future__ import annotations

import functools
import math
import time


class TraceTargetError(RuntimeError):
    """A target to wrap is missing, or a workload made no call it must make."""


# metric key -> (module, attribute path inside it where callers look it up)
TARGETS = {
    "cfmm.max_lvr": ("sim", "max_lvr"),
    "cfmm.reserves_at_price": ("cfmm", "ConstantProduct.reserves_at_price"),
    "rebate.apply_rebated_move": ("engine", "apply_rebated_move"),
    "rebate.vault_reenter": ("engine", "vault_reenter"),
    "agents.decide_update": ("sim", "decide_update"),
    "agents.price_step": ("agents", "PriceProcess.step"),
    "agents.gen_user_orders": ("sim", "gen_user_orders"),
    "engine.submit_oct": ("engine", "ChainState.submit_oct"),
    "engine.commit_order": ("engine", "commit_order"),
    "engine.apply_update_tx": ("engine", "ChainState.apply_update_tx"),
    "engine.reveal_order": ("engine", "ChainState.reveal_order"),
    "engine.advance_block": ("engine", "ChainState.advance_block"),
    "engine.execute_batch": ("engine", "ChainState.execute_batch"),
    "engine.pool_reserves": ("engine", "ChainState.pool_reserves"),
    "allocation.solve": ("engine", "clearing_price_with_limits"),
    "allocation.verify": ("engine", "verify_clearing_price"),
    "sim.run_scenario": ("sim", "run_scenario"),
    "cli.main": ("cli", "main"),
}


def _orders_arg(args, result):
    return len(args[2])


def _orders_result(args, result):
    return len(result)


# Targets whose per-call durations are kept, and how to count the orders a
# call handled.
KEEP_DURATIONS = {"sim.run_scenario", "allocation.solve", "allocation.verify"}
ORDER_COUNTS = {
    "allocation.solve": _orders_arg,
    "allocation.verify": _orders_arg,
    "agents.gen_user_orders": _orders_result,
}


def package_modules() -> dict:
    """The package modules named in ``TARGETS``, by name."""
    from v0lver import agents, cfmm, cli, engine, sim

    return {"agents": agents, "cfmm": cfmm, "cli": cli, "engine": engine, "sim": sim}


class Stat:
    __slots__ = ("calls", "total", "self_time", "orders", "durations", "order_counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.orders = 0
        self.durations: list[float] = []
        self.order_counts: list[int] = []


class Tracer:
    """Wraps every target in ``TARGETS`` while installed.

    ``modules`` maps the module names used in ``TARGETS`` to the imported
    modules (``package_modules()`` by default). ``install`` raises
    ``TraceTargetError`` naming the first target that cannot be found, and
    patches nothing in that case.
    """

    def __init__(self, modules: dict | None = None):
        self.modules = modules if modules is not None else package_modules()
        self.stats = {key: Stat() for key in TARGETS}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _resolve(self, key):
        module_name, path = TARGETS[key]
        owner = self.modules[module_name]
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                raise TraceTargetError(f"trace target {key}: {module_name}.{path} not found")
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(found):
            raise TraceTargetError(f"trace target {key}: {module_name}.{path} not found")
        return owner, attr, found

    def install(self):
        resolved = [(key, *self._resolve(key)) for key in TARGETS]
        for key, owner, attr, fn in resolved:
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(key, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        keep = key in KEEP_DURATIONS
        count_orders = ORDER_COUNTS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - children
                if keep:
                    stat.durations.append(dt)
            if count_orders is not None:
                n = count_orders(args, result)
                stat.orders += n
                if keep:
                    stat.order_counts.append(n)
            return result

        return wrapper

    def require_calls(self, keys):
        """Raise naming the first target in ``keys`` that was never called."""
        for key in keys:
            if self.stats[key].calls == 0:
                raise TraceTargetError(f"trace target {key} got no calls")

    def require_no_calls(self, keys):
        for key in keys:
            if self.stats[key].calls:
                raise TraceTargetError(
                    f"trace target {key} got {self.stats[key].calls} calls, expected none"
                )


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest percentile in ``TAIL_PERCENTILES`` with at least 10 samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


PER_CALL_US = (
    "cfmm.max_lvr", "cfmm.reserves_at_price", "rebate.apply_rebated_move",
    "rebate.vault_reenter", "agents.decide_update", "agents.price_step",
    "engine.submit_oct", "engine.reveal_order", "engine.commit_order",
)
SELF_US = ("engine.apply_update_tx", "engine.advance_block")
CALLS_PER_BLOCK = PER_CALL_US + SELF_US + (
    "engine.pool_reserves", "engine.execute_batch", "allocation.solve",
    "allocation.verify", "agents.gen_user_orders",
)


def layer_metrics(tracer: Tracer, blocks: int, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Reduce the tracer's counters to per-layer metrics ``{name: (value, unit)}``.

    ``blocks`` and ``traced_wall`` are the simulated blocks and wall seconds
    of the traced units. A per-call figure is 0 when the target had no calls.
    """
    s = tracer.stats

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {}
    for key in PER_CALL_US:
        out[f"{key}.us"] = (per(s[key].self_time, s[key].calls, 1e6), "us")
    for key in SELF_US:
        out[f"{key}.self_us"] = (per(s[key].self_time, s[key].calls, 1e6), "us")
    for key in CALLS_PER_BLOCK:
        out[f"{key}.calls_per_block"] = (per(s[key].calls, blocks), "calls/block")

    run = s["sim.run_scenario"]
    out["sim.run_scenario.ms.p50"] = (1e3 * percentile(run.durations, 50), "ms")
    out["sim.run_scenario.ms.p99"] = (1e3 * percentile(run.durations, 99), "ms")
    out["sim.run_scenario.samples"] = (float(len(run.durations)), "count")
    out["sim.self_share"] = (per(run.self_time, run.total), "ratio")

    solve, verify = s["allocation.solve"], s["allocation.verify"]
    out["allocation.solve.us_per_order"] = (per(solve.total, solve.orders, 1e6), "us")
    out["allocation.verify.us_per_order"] = (per(verify.total, verify.orders, 1e6), "us")
    settle = [a + b for a, b in zip(solve.durations, verify.durations)]
    tail = tail_percentile(len(settle))
    out["allocation.settle.ms.p50"] = (1e3 * percentile(settle, 50), "ms")
    out["allocation.settle.ms.ptail"] = (1e3 * percentile(settle, tail), "ms")
    out["allocation.settle.tail_pct"] = (tail, "%")
    out["allocation.settle.samples"] = (float(len(settle)), "count")
    out["allocation.batch_orders.p50"] = (float(percentile(solve.order_counts, 50)), "count")
    out["allocation.batch_orders.max"] = (float(max(solve.order_counts, default=0)), "count")
    out["allocation.time_share"] = (per(solve.total + verify.total, traced_wall), "ratio")

    execute = s["engine.execute_batch"]
    out["engine.execute_batch.self_us_per_order"] = (per(execute.self_time, solve.orders, 1e6), "us")
    gen = s["agents.gen_user_orders"]
    out["agents.gen_user_orders.us_per_order"] = (per(gen.self_time, gen.orders, 1e6), "us")

    main = s["cli.main"]
    out["cli.self_share"] = (per(main.self_time, main.total), "ratio")
    return out
