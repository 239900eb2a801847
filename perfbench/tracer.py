"""Outside-in tracer for the ``koszul`` package.

The tracer wraps chosen callables of each ``koszul.*`` module from outside:
it rebinds every module attribute that *is* the original function (so
``homology.kernel_of_columns``, imported by name, is wrapped along with
``sparse.kernel_of_columns``) and patches methods on their classes.
``uninstall`` puts every original back.

A call that enters a layer (a module) from another one opens a span; a call
within the layer only runs its counting hook, so self time stays with the
layer and the cost of the wrapper stays small.  A layer's self time is its
spans' durations minus the time covered by their child spans.  Spans are kept
in memory and written out by the caller.

``koszul.fields`` and the per-monomial helpers of ``koszul.polyring`` are
deliberately not wrapped: they run per scalar or per monomial, so a wrapper
would mostly measure itself.  Their cost lands in the caller's self time.

Per-layer metrics (``layer_metrics``); every count repeats exactly on a rerun:

* ``<layer>.self_s``: the layer's self time.
* ``sparse.calls``: calls into ``sparse`` from other layers; ``sparse.cols``
  and ``sparse.nnz``: columns inserted into an echelon and their nonzeros;
  ``sparse.rank_sum``: inserted columns that were independent;
  ``sparse.coeff_bits_max``: largest numerator or denominator bit length in
  the kernels ``kernel_of_columns`` returned.
* ``polyring.gb_runs``, ``gb_s``, ``gb_size``: ``groebner_basis`` runs, their
  inclusive time and the largest basis returned; ``normal_forms``: calls of
  the module-level ``normal_form``; ``mono_product_calls`` and
  ``mono_product_hit_ratio``: ``QuotientRing.mono_product`` calls and the
  share whose key that ring had been asked for before.
* ``homology.slices`` and ``complex_cols``: ``_slice_from_bases`` calls and
  the Koszul basis elements they cover; ``elim_per_col``: echelon columns
  inserted under homology per complex column; ``product_calls`` and
  ``product_hit_ratio``: ``product_coords`` calls and the share of keys that
  algebra had been asked for before.
* ``graded.mult_calls``: ``GradedAlgebraData.mult`` calls.
* ``freealg.reduce_calls``: ``ReductionSystem.reduce`` calls;
  ``reduced_words``: words returned by ``reduced_words``.
* ``betti.tables``, ``engine_bar``, ``engine_resolution``: ``betti_table``
  calls and the engine each ran; ``bar_words``: bar words built, once per
  engine and slice; ``resolution_gens``: generators in resolution tables;
  ``act_calls``: ``ResolutionEngine._act`` calls.
* ``identities.ring_poincare_calls``, ``series.divide_exact_calls``.
* ``cli.load_ring_s``: inclusive time of ``load_ring``.
* ``trace.coverage``: the layers' summed self time over the root span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import weakref
from collections import Counter

LAYERS = ("sparse", "polyring", "homology", "graded", "freealg", "betti",
          "identities", "series", "families", "cli")

# module -> wrapped module-level functions
FUNCTIONS = {
    "sparse": ("kernel_of_columns", "rank_of_columns", "rank_kernel",
               "solve_in_image", "diagonalize_symmetric_form", "symplectic_basis"),
    "polyring": ("groebner_basis", "normal_form", "parse_polynomial"),
    "homology": ("koszul_basis", "koszul_basis_multigraded", "differential",
                 "homology", "multigraded_homology", "_slice_from_bases"),
    "graded": ("ring_algebra_data", "strand_totalize", "minimal_generators", "present"),
    "freealg": ("certify_groebner_by_dims", "overlap_completion"),
    "betti": ("betti_table", "is_koszul_up_to", "is_strand_koszul_up_to",
              "trigraded_betti", "shape_check", "poincare_K_from_R"),
    "identities": ("ring_poincare", "homology_poincare_sst", "homology_q_betti_series",
                   "check_theorem_A", "check_hilbert_identity", "check_low_degree_betti",
                   "check_quasi_formal", "check_theorem_B", "check_golod",
                   "check_prop_2_5"),
    "series": ("univariate_mul",),
    "families": ("build_path_ring", "build_cycle_ring", "build_quadratic_ci",
                 "short_gorenstein_certify", "three_relation_certify",
                 "path_generator_elements", "path_certify"),
    "cli": ("main", "load_ring", "cmd_homology", "cmd_check", "cmd_family", "emit"),
}

# (module, class) -> wrapped methods
METHODS = {
    ("sparse", "IntEchelon"): ("insert",),
    ("sparse", "FieldEchelon"): ("insert", "reduce"),
    ("polyring", "QuotientRing"): ("groebner", "leading_monomials", "std_monomials",
                                   "dim", "hilbert_coeffs", "basis_index",
                                   "normal_form", "multiply_mod", "mono_product",
                                   "contains"),
    ("homology", "KoszulHomologyAlgebra"): ("basis", "dim", "dims", "multigraded_dim",
                                            "coords_of_cycle", "multiply_elements",
                                            "product_coords", "positive_strands",
                                            "algebra_data"),
    ("graded", "GradedAlgebraData"): ("mult", "mult_vec"),
    ("freealg", "FreeAlgebra"): ("words_of_degree", "mul"),
    ("freealg", "ReductionSystem"): ("reduce", "reduced_words", "is_reduced_word"),
    ("betti", "BarEngine"): ("words", "differential_columns", "rank", "betti",
                             "total_grades"),
    ("betti", "ResolutionEngine"): ("extend", "betti_entries", "_act"),
    ("series", "SeriesTrunc"): ("binomial_power", "restrict", "__add__", "__sub__",
                                "__mul__", "first_difference", "divide_exact",
                                "coefficientwise_le", "eval_first_at_minus_one"),
}


def _bits(value) -> int:
    """Largest bit length of a rational's numerator and denominator."""
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Span recorder and counters for one traced pass."""

    def __init__(self):
        self.counts: Counter = Counter()   # exact work counts
        self.self_ns: Counter = Counter()  # per layer, plus "trace" for hooks
        self.timed_ns: Counter = Counter()  # inclusive times of chosen callables
        self.spans: list = []              # (id, parent id, name, start ns, end ns)
        self._ids = itertools.count(1)
        self._stack = [["bench", 0, 0]]    # frames: [layer, span id, child ns]
        self._seen: dict = {}              # counter -> object -> keys seen
        self._patches: list = []           # (owner, attribute, original)

    # -- counting helpers used by hooks -------------------------------------

    def seen_before(self, counter: str, owner, key) -> bool:
        """Record a cache key for an object; True if that object saw it before."""
        owners = self._seen.get(counter)
        if owners is None:
            owners = self._seen[counter] = weakref.WeakKeyDictionary()
        keys = owners.get(owner)
        if keys is None:
            keys = owners[owner] = set()
        if key in keys:
            return True
        keys.add(key)
        return False

    def caller_layer(self, layer: str) -> str:
        """Layer of the nearest enclosing frame outside ``layer``."""
        for frame in reversed(self._stack):
            if frame[0] != layer:
                return frame[0]
        return "bench"

    def high_water(self, counter: str, value: int) -> None:
        if value > self.counts[counter]:
            self.counts[counter] = value

    # -- spans -----------------------------------------------------------------

    def wrap(self, layer: str, name: str, func, hook=None):
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        ids = self._ids
        clock = time.perf_counter_ns
        entries = f"{layer}.calls"
        counts = self.counts

        def run_hook(args, result, elapsed):
            h0 = clock()
            hook(self, args, result, elapsed)
            spent = clock() - h0
            stack[-1][2] += spent
            self_ns["trace"] += spent

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                if hook is None:
                    return func(*args, **kwargs)
                t0 = clock()
                result = func(*args, **kwargs)
                run_hook(args, result, clock() - t0)
                return result
            frame = [layer, next(ids), 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_ns[layer] += elapsed - frame[2]
                parent[2] += elapsed
                spans.append((frame[1], parent[1], name, t0, t1))
            counts[entries] += 1
            if hook is not None:
                run_hook(args, result, elapsed)
            return result

        return wrapper

    def root_span(self, func, *args):
        """Run ``func(*args)`` as the root span; returns (result, duration ns)."""
        frame = ["bench", next(self._ids), 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            result = func(*args)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.self_ns["bench"] += (t1 - t0) - frame[2]
            self.spans.append((frame[1], 0, "pass", t0, t1))
        return result, t1 - t0

    # -- installing ---------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "koszul" or name.startswith("koszul."))]
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"koszul.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapped = self.wrap(layer, f"{layer}.{name}", original, HOOKS.get((layer, name)))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[f"koszul.{layer}"], cls_name)
            for name in names:
                original = cls.__dict__[name]
                func = original.__func__ if isinstance(original, classmethod) else original
                wrapped = self.wrap(layer, f"{layer}.{cls_name}.{name}", func,
                                    HOOKS.get((layer, f"{cls_name}.{name}")))
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrapped)
                self._patches.append((cls, name, original))
                setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-layer metrics -----------------------------------------------------------

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly on a rerun of the same pass."""
        return dict(sorted(self.counts.items()))

    def layer_metrics(self, root_ns: int) -> dict:
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def self_s(layer):
            return self.self_ns[layer] / 1e9

        layer_self = sum(self.self_ns[layer] for layer in LAYERS)
        return {
            "sparse.self_s": (self_s("sparse"), "s"),
            "sparse.calls": (c["sparse.calls"], "count"),
            "sparse.cols": (c["sparse.cols"], "count"),
            "sparse.nnz": (c["sparse.nnz"], "count"),
            "sparse.rank_sum": (c["sparse.rank_sum"], "count"),
            "sparse.coeff_bits_max": (c["sparse.coeff_bits_max"], "bits"),
            "polyring.self_s": (self_s("polyring"), "s"),
            "polyring.gb_runs": (c["polyring.gb_runs"], "count"),
            "polyring.gb_s": (self.timed_ns["polyring.gb"] / 1e9, "s"),
            "polyring.gb_size": (c["polyring.gb_size"], "count"),
            "polyring.normal_forms": (c["polyring.normal_forms"], "count"),
            "polyring.mono_product_calls": (c["polyring.mono_product_calls"], "count"),
            "polyring.mono_product_hit_ratio": (
                ratio(c["polyring.mono_product_hits"], c["polyring.mono_product_calls"]),
                "ratio"),
            "homology.self_s": (self_s("homology"), "s"),
            "homology.slices": (c["homology.slices"], "count"),
            "homology.complex_cols": (c["homology.complex_cols"], "count"),
            "homology.elim_per_col": (
                ratio(c["homology.elim_cols"], c["homology.complex_cols"]), "ratio"),
            "homology.product_calls": (c["homology.product_calls"], "count"),
            "homology.product_hit_ratio": (
                ratio(c["homology.product_hits"], c["homology.product_calls"]), "ratio"),
            "graded.self_s": (self_s("graded"), "s"),
            "graded.mult_calls": (c["graded.mult_calls"], "count"),
            "freealg.self_s": (self_s("freealg"), "s"),
            "freealg.reduce_calls": (c["freealg.reduce_calls"], "count"),
            "freealg.reduced_words": (c["freealg.reduced_words"], "count"),
            "betti.self_s": (self_s("betti"), "s"),
            "betti.tables": (c["betti.tables"], "count"),
            "betti.engine_bar": (c["betti.engine_bar"], "count"),
            "betti.engine_resolution": (c["betti.engine_resolution"], "count"),
            "betti.bar_words": (c["betti.bar_words"], "count"),
            "betti.resolution_gens": (c["betti.resolution_gens"], "count"),
            "betti.act_calls": (c["betti.act_calls"], "count"),
            "identities.self_s": (self_s("identities"), "s"),
            "identities.ring_poincare_calls": (c["identities.ring_poincare_calls"], "count"),
            "series.self_s": (self_s("series"), "s"),
            "series.divide_exact_calls": (c["series.divide_exact_calls"], "count"),
            "families.self_s": (self_s("families"), "s"),
            "cli.self_s": (self_s("cli"), "s"),
            "cli.load_ring_s": (self.timed_ns["cli.load_ring"] / 1e9, "s"),
            "trace.coverage": (ratio(layer_self, root_ns), "ratio"),
        }


# -- counting hooks: hook(tracer, positional args, result, elapsed ns) ----------------

def _echelon_insert(independent):
    def hook(t, args, result, elapsed):
        col = args[1]
        t.counts["sparse.cols"] += 1
        t.counts["sparse.nnz"] += len(col)
        if independent(result):
            t.counts["sparse.rank_sum"] += 1
        if t.caller_layer("sparse") == "homology":
            t.counts["homology.elim_cols"] += 1
    return hook


def _kernel(t, args, result, elapsed):
    bits = max((_bits(v) for vec in result[1] for v in vec.values()), default=0)
    t.high_water("sparse.coeff_bits_max", bits)


def _groebner(t, args, result, elapsed):
    t.counts["polyring.gb_runs"] += 1
    t.timed_ns["polyring.gb"] += elapsed
    t.high_water("polyring.gb_size", len(result[0]))


def _count(counter):
    def hook(t, args, result, elapsed):
        t.counts[counter] += 1
    return hook


def _keyed(calls, hits, key):
    """Count calls, and calls whose key the same object was asked before."""
    def hook(t, args, result, elapsed):
        t.counts[calls] += 1
        if t.seen_before(calls, args[0], key(args)):
            t.counts[hits] += 1
    return hook


def _slice(t, args, result, elapsed):
    t.counts["homology.slices"] += 1
    t.counts["homology.complex_cols"] += len(args[2])


def _product_key(args):
    h1, h2 = args[1], args[2]
    return (h1.i, h1.j, h1.index, h2.i, h2.j, h2.index)


def _betti_table(t, args, result, elapsed):
    t.counts["betti.tables"] += 1
    t.counts[f"betti.engine_{result.engine}"] += 1


def _bar_words(t, args, result, elapsed):
    if not t.seen_before("betti.bar_words", args[0], (args[1], args[2])):
        t.counts["betti.bar_words"] += len(result)


def _resolution_gens(t, args, result, elapsed):
    t.counts["betti.resolution_gens"] += sum(v for (p, _), v in result.items() if p >= 1)


def _reduced_words(t, args, result, elapsed):
    t.counts["freealg.reduced_words"] += len(result)


def _load_ring(t, args, result, elapsed):
    t.timed_ns["cli.load_ring"] += elapsed


HOOKS = {
    ("sparse", "IntEchelon.insert"): _echelon_insert(lambda result: result is None),
    ("sparse", "FieldEchelon.insert"): _echelon_insert(lambda result: bool(result[0])),
    ("sparse", "kernel_of_columns"): _kernel,
    ("polyring", "groebner_basis"): _groebner,
    ("polyring", "normal_form"): _count("polyring.normal_forms"),
    ("polyring", "QuotientRing.mono_product"): _keyed(
        "polyring.mono_product_calls", "polyring.mono_product_hits",
        lambda args: (args[1], args[2])),
    ("homology", "_slice_from_bases"): _slice,
    ("homology", "KoszulHomologyAlgebra.product_coords"): _keyed(
        "homology.product_calls", "homology.product_hits", _product_key),
    ("graded", "GradedAlgebraData.mult"): _count("graded.mult_calls"),
    ("freealg", "ReductionSystem.reduce"): _count("freealg.reduce_calls"),
    ("freealg", "ReductionSystem.reduced_words"): _reduced_words,
    ("betti", "betti_table"): _betti_table,
    ("betti", "BarEngine.words"): _bar_words,
    ("betti", "ResolutionEngine.betti_entries"): _resolution_gens,
    ("betti", "ResolutionEngine._act"): _count("betti.act_calls"),
    ("identities", "ring_poincare"): _count("identities.ring_poincare_calls"),
    ("series", "SeriesTrunc.divide_exact"): _count("series.divide_exact_calls"),
    ("cli", "load_ring"): _load_ring,
}
