"""RPR4xx — honest simulated-cost accounting.

Every simulated time this reproduction reports is the sum of explicit
charges: collectives price themselves through the topology schedules, and
*local* NumPy passes must be paid for via ``ctx.charge_compute`` or a
costed wrapper (:class:`repro.kernels.costed.CostedKernels`). A kernel
that touches a shard without charging silently deflates the simulated
clock — the model stays plausible and wrong, which is worse than broken.

* **RPR401** — a function in a costed path (``kernels/``, ``selection/``,
  ``psort/``, ``balance/``, ``stream/`` by default; configurable) that
  *could* charge (it has a ``ctx``/``kernels``/``K`` seam in scope) makes
  a direct array-pass NumPy call (``np.sort``, ``np.partition``,
  ``np.concatenate``, ...) but contains **no** charging call at all.

Granularity is per enclosing function, as a reviewable approximation:
one charge in the function is taken as evidence the author did the cost
math for the whole block. Pure implementation modules whose *callers*
charge (the ``CostedKernels`` pattern) either have no charging seam in
scope — and are skipped automatically — or can declare the module pragma
``# repro: costed-by-caller``.
"""

from __future__ import annotations

import ast

from ..core import ModuleContext, Rule, register_rule
from ..spmd import function_params

__all__ = ["UnchargedNumpyPass"]

#: NumPy module functions that are O(n) (or worse) passes over array data.
_NP_PASSES = frozenset(
    {
        "sort",
        "argsort",
        "lexsort",
        "partition",
        "argpartition",
        "concatenate",
        "unique",
        "bincount",
        "histogram",
        "median",
        "percentile",
        "quantile",
    }
)

#: Method names that advance the simulated clock.
_CHARGE_METHODS = frozenset(
    {"charge_compute", "charge_scan_evidence", "scan_pass", "rng_draw"}
)

#: Receivers whose *every* method call is a costed wrapper.
_KERNEL_NAMES = frozenset({"K", "kernels", "kern"})


def _is_charge_call(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _CHARGE_METHODS:
        return True
    base = func.value
    if isinstance(base, ast.Name) and base.id in _KERNEL_NAMES:
        return True
    if isinstance(base, ast.Attribute) and base.attr in _KERNEL_NAMES:
        return True
    return False


def _references_charging_seam(fn: ast.AST) -> bool:
    """Does ``fn`` have a clock in scope (``self.ctx`` / ``self.K`` ...)?"""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr in (
            {"ctx"} | _KERNEL_NAMES
        ):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return True
    return False


@register_rule
class UnchargedNumpyPass(Rule):
    code = "RPR401"
    name = "uncharged-numpy-pass"
    description = (
        "array-pass NumPy call in a costed path without any "
        "charge_compute/costed-wrapper call in the enclosing function "
        "(simulated time silently under-counts)"
    )
    hint = (
        "route the pass through CostedKernels (K.sort/K.split_band/...) "
        "or pair it with ctx.charge_compute(<cost formula>); if the "
        "caller charges on this module's behalf, declare "
        "`# repro: costed-by-caller`"
    )

    def check(self, module: ModuleContext):
        if not module.config.in_costed_paths(module.posix_path):
            return
        if "costed-by-caller" in module.pragmas:
            return
        numpy_names = module.alias_of("numpy")
        if not numpy_names:
            return
        for fn in module.functions():
            params = function_params(fn)
            charge_capable = bool(
                params & ({"ctx"} | _KERNEL_NAMES)
            ) or _references_charging_seam(fn)
            if not charge_capable:
                continue
            passes: list[ast.Call] = []
            charges = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if _is_charge_call(node):
                    charges = True
                    break
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _NP_PASSES
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in numpy_names
                ):
                    passes.append(node)
            if charges:
                continue
            for call in passes:
                yield self.finding(
                    module,
                    call,
                    f"`np.{call.func.attr}` pass with no simulated-cost "
                    "charge in `"
                    f"{getattr(fn, 'name', '<fn>')}`",
                    self.hint,
                )
