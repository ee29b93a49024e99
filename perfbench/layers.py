"""Per-layer metrics from one traced run; the layers are tatecalc's modules."""

from __future__ import annotations

from collections import defaultdict

from tracer import span_self_times

SUITES = ("prop1", "corollary", "prop2", "cartier", "rota-baxter", "exactness-h",
          "exactness-k", "expansions", "adams", "renorm")
SERIES_OPS = ("mul", "inverse", "exp", "log", "div_exact")
# (op, coefficient ring) pairs the three workloads reach; others are printed
# as unlisted diagnostics
SERIES_RINGS = {
    "mul": ("ZZ", "QQ_beta", "QQ_x", "QQ_x_y", "QQ_b_cinv"),
    "inverse": ("QQ", "QQ_beta", "QQ_x_y", "QQ_cinv", "QQ_b_cinv", "QQ_frac_beta",
                "ZZ_c_pm1", "ZZ_q_pm1", "QQ_b_pm1"),
    "exp": ("QQ_b", "QQ_x", "QQ_cinv", "QQ_b_cinv"),
    "log": ("QQ_b", "QQ_x", "QQ_x_y", "QQ_qinv"),
    "div_exact": ("QQ_x_y",),
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    s, n = "s", "count"
    names = [("cli.main.calls", n), ("cli.main.self_s", s), ("cli.build_parser.self_s", s),
             ("parser.parse.calls", n), ("parser.parse.self_s", s),
             ("evaluator.evaluate.calls", n), ("evaluator.evaluate.self_s", s)]
    names += [(f"verify.{suite}.s", s) for suite in SUITES]
    names += [("tate_h.self_s", s), ("tate_k.self_s", s), ("tate_k.q_series.s", s),
              ("tate_k.partial_fractions.calls", n), ("renorm.self_s", s),
              ("expansions.expand.calls", n), ("expansions.expand.self_s", s)]
    for op in SERIES_OPS:
        names += [(f"series.{op}.calls", n), (f"series.{op}.self_s", s)]
        names += [(f"series.{op}.{ring}.self_s", s) for ring in SERIES_RINGS[op]]
    names += [("multipoly.self_s", s), ("multipoly.MultiPoly.init.calls", n),
              ("multipoly.MultiPoly.mul.calls", n), ("multipoly.MultiPoly.add.calls", n),
              ("multipoly.RationalFunction.init.calls", n),
              ("laurent.self_s", s), ("laurent.LaurentPoly.mul.calls", n),
              ("basis.self_s", s), ("basis.numerical_mul.calls", n),
              ("basis.numerical_mul.self_s", s), ("basis.to_binomial_basis.self_s", s),
              ("fractions.Fraction.new.calls", n), ("trace.overhead_s", s)]
    return names


def _values(trace: dict) -> dict[str, float]:
    """Flat table: <span>.calls/.s/.self_s, <module>.self_s, series.<op> totals."""
    self_of = span_self_times(trace["spans"])
    out: dict[str, float] = defaultdict(int)
    for name, count in trace["calls"].items():
        out[f"{name}.calls"] = count
    for sid, name, start, end, _parent, _op, _opaque in trace["spans"]:
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += self_of[sid]
        out[f"{name.split('.', 1)[0]}.self_s"] += self_of[sid]
        parts = name.split(".")
        if parts[0] == "series" and len(parts) == 3 and parts[1] in SERIES_OPS:  # kernel.ring
            out[f"series.{parts[1]}.calls"] += 1
            out[f"series.{parts[1]}.self_s"] += self_of[sid]
    for key, seconds in trace["agg_self"].items():
        out[f"{key.split('.', 1)[0]}.self_s"] += seconds
    return out


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Every listed per-layer metric except trace.overhead_s; 0 where a layer did no work."""
    values = _values(trace)
    return {name: (values.get(name, 0), unit)
            for name, unit in metric_names() if name != "trace.overhead_s"}


def unlisted_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Ring-split series metrics for rings outside SERIES_RINGS."""
    listed = {name for name, _ in metric_names()}
    return {k: (v, "s") for k, v in _values(trace).items()
            if k.startswith("series.") and k.endswith(".self_s") and k.count(".") == 3
            and k not in listed}
