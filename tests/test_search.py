import re

import pytest

from abeforge import search
from abeforge.models import MAX_SIZE, canonical_form, canonicalize, is_model
from abeforge.search import (
    brute_force_models,
    core_name,
    enumerate_with_stats,
    enumerate_sizes,
    first_counterexample,
)
from abeforge.statements import AxiomSystem

# Counts pinned by the brute-force oracle (n <= 3) and by double-run
# reproducibility (n >= 4); see the acceptance suite for the cross-checks.
GOLDEN_CLASSES = {
    "aBE": {1: 1, 2: 1, 3: 3, 4: 19},
    "implicative-aBE": {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3},
}
GOLDEN_LABELED = {"aBE": {1: 1, 2: 1, 3: 5}, "implicative-aBE": {1: 1, 2: 1, 3: 1}}

# Nodes the core takes at each size: any change to the cell order, the
# values a decision tries, the propagator, the prefix test or the
# relabelings it reads moves them.
CORE_NODES = {
    "implicative-aBE": {1: 0, 2: 0, 3: 6, 4: 32, 5: 155, 6: 456, 7: 1211, 8: 3280},
    "aBE": {1: 0, 2: 0, 3: 9, 4: 208, 5: 4985},
}


class TestEnumerate:
    def test_size_one_is_trivial(self, corpus):
        models = enumerate_with_stats(corpus.axiom_system("implicative-aBE"), 1)[0]
        assert len(models) == 1
        assert models[0].size == 1

    def test_size_two_forced(self, corpus):
        models = enumerate_with_stats(corpus.axiom_system("implicative-aBE"), 2)[0]
        assert len(models) == 1
        assert models[0].table == ((1, 1), (0, 1))

    @pytest.mark.parametrize("name", ["aBE", "implicative-aBE"])
    def test_golden_counts(self, corpus, name):
        system = corpus.axiom_system(name)
        for n, want in GOLDEN_CLASSES[name].items():
            assert len(enumerate_with_stats(system, n)[0]) == want

    @pytest.mark.parametrize("name", ["aBE", "implicative-aBE"])
    def test_emitted_models_are_canonical_distinct_models(self, corpus, name):
        system = corpus.axiom_system(name)
        seen = set()
        for n in (3, 4):
            for model in enumerate_with_stats(system, n)[0]:
                ok, _ = is_model(model, system, corpus.statements)
                assert ok
                assert canonicalize(model) == model
                key = canonical_form(model)
                assert key not in seen
                seen.add(key)

    def test_stream_ascending_canonical_order(self, corpus):
        system = corpus.axiom_system("aBE")
        keys = [canonical_form(m) for m in enumerate_with_stats(system, 4)[0]]
        assert keys == sorted(keys)

    def test_repeat_runs_identical(self, corpus):
        system = corpus.axiom_system("implicative-aBE")
        a = enumerate_with_stats(system, 5)[0]
        b = enumerate_with_stats(system, 5)[0]
        assert a == b

    def test_unknown_system_rejected(self, corpus):
        message = "the search core only knows 'aBE' and 'implicative-aBE', not 'weird'"
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_with_stats(AxiomSystem("weird", ("ax1",)), 2)

    def test_budget_exceeded_flag(self, corpus):
        system = corpus.axiom_system("aBE")
        _, nodes, exceeded = enumerate_with_stats(system, 4, node_budget=10)
        assert exceeded
        assert nodes <= 10

    def test_negative_budget_rejected(self, corpus):
        with pytest.raises(ValueError, match="budget"):
            enumerate_with_stats(corpus.axiom_system("aBE"), 3, node_budget=-1)

    @pytest.mark.parametrize("n, message", [(0, "size must be >= 1"), (MAX_SIZE + 1, "size must be <= 16")])
    def test_size_outside_the_searchable_range_rejected(self, corpus, n, message):
        with pytest.raises(ValueError, match=message):
            enumerate_with_stats(corpus.axiom_system("aBE"), n)


class TestCoreTwins:
    def test_core_name_is_reported(self):
        assert core_name() == "python"


class TestCoreNodes:
    @pytest.mark.parametrize("name", ["aBE", "implicative-aBE"])
    def test_node_counts(self, name):
        implicative = name == "implicative-aBE"
        got = {n: search._core.search_tables(n, implicative)[1] for n in CORE_NODES[name]}
        assert got == CORE_NODES[name]


class TestBruteForce:
    @pytest.mark.parametrize("name", ["aBE", "implicative-aBE"])
    def test_labeled_and_class_counts(self, corpus, name):
        system = corpus.axiom_system(name)
        for n in (1, 2, 3):
            labeled, classes = brute_force_models(system, n, corpus.statements)
            assert labeled == GOLDEN_LABELED[name][n]
            assert classes == GOLDEN_CLASSES[name][n]

    def test_oracle_equivalence(self, corpus):
        for name in ("aBE", "implicative-aBE"):
            system = corpus.axiom_system(name)
            for n in (1, 2, 3):
                _, classes = brute_force_models(system, n, corpus.statements)
                assert classes == len(enumerate_with_stats(system, n)[0])

    def test_size_bound_refusal(self, corpus):
        with pytest.raises(ValueError, match="brute force is capped at size 3, got 4"):
            brute_force_models(corpus.axiom_system("aBE"), 4, corpus.statements)


class TestReport:
    def test_report_counts_and_properties(self, corpus):
        system = corpus.axiom_system("implicative-aBE")
        sizes = list(enumerate_sizes(system, 4, 0))
        assert [len(models) for _, models, _, _, _ in sizes] == [1, 1, 1, 2]
        models = [model for _, found, _, _, _ in sizes for model in found]
        for sid in ("trans", "commutativity"):
            assert first_counterexample(models, corpus.statement(sid)) is None

    def test_report_budget_exceeded(self, corpus):
        system = corpus.axiom_system("aBE")
        n, models, _, exceeded, _ = list(enumerate_sizes(system, 4, 10))[-1]
        assert (n, models, exceeded) == (4, [], True)

    def test_budget_is_shared_by_the_sizes(self, corpus):
        # sizes 1..3 need 0, 0 and 9 nodes, so size 4 gets the 1 node left
        # and size 5 none, and is not searched
        system = corpus.axiom_system("aBE")
        got = [(None if exceeded else len(models), nodes, exceeded)
               for _, models, nodes, exceeded, _ in enumerate_sizes(system, 5, 10)]
        assert got == [(1, 0, False), (1, 0, False), (3, 9, False), (None, 1, True), (None, 0, True)]

    def test_budget_used_up_exactly_skips_the_rest(self, corpus, monkeypatch):
        # a budget of 0 means unlimited to the core, so a size with nothing
        # left must not reach it
        sizes_searched = []
        core_search = search._core.search_tables

        def recording_search(n, *args):
            sizes_searched.append(n)
            return core_search(n, *args)

        monkeypatch.setattr(search._core, "search_tables", recording_search)
        system = corpus.axiom_system("aBE")
        got = [(None if exceeded else len(models), nodes, exceeded)
               for _, models, nodes, exceeded, _ in enumerate_sizes(system, 5, 9)]
        assert sizes_searched == [1, 2, 3]
        assert got == [(1, 0, False), (1, 0, False), (3, 9, False), (None, 0, True), (None, 0, True)]
