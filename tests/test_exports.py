"""The package namespace: each public name exported once, no tuning knob
left on the public functions, no private function that the package itself
never uses, no private default that only the tests rely on, no defaulted
private parameter that only the tests set, the paper's MMSE lemma written
out in one place, the Monte Carlo's per-step kernels called from one place
each, one path through the order searches' plans, one channel mix behind
the noisy tables, the conditional MMSE and the stacked output laws, one
stacking loop that groups pmfs by n for every same-n batch, no per-pmf loop
left in the single channel, entropy and one-order MMSE calls, and one path
from the order search and the any-order oracle to their callers, with one
builder of the searched bounds' results."""

import ast
import inspect
from pathlib import Path

import pytest

import bscbounds

SRC = Path(__file__).resolve().parents[1] / "src" / "bscbounds"


def _top_level():
    """(module stem, node) for every top-level node of every module in src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path.stem, node


def _called(sub):
    """The name a Call node calls, or None for any other node."""
    if isinstance(sub, ast.Call):
        return getattr(sub.func, "id", getattr(sub.func, "attr", None))
    return None


def test_every_export_is_listed_once_and_resolves():
    names = bscbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bscbounds, name), name


@pytest.mark.parametrize("knob", ["cap", "tol", "per_component"])
def test_no_public_function_takes_a_tuning_knob(knob):
    funcs = [(name, obj) for name in bscbounds.__all__
             if inspect.isfunction(obj := getattr(bscbounds, name))]
    assert funcs
    assert [name for name, fn in funcs if knob in inspect.signature(fn).parameters] == []


def test_every_private_function_is_used_in_the_package():
    # a use is a Name or Attribute node outside the function's own body, so
    # neither a docstring's mention nor a test's call keeps a function alive
    users = {}
    private = []
    for module, node in _top_level():
        owner = (module, getattr(node, "name", None))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            private.append(owner)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                users.setdefault(sub.id, set()).add(owner)
            elif isinstance(sub, ast.Attribute):
                users.setdefault(sub.attr, set()).add(owner)
    assert private
    assert [f"{m}.{f}" for m, f in private if not users.get(f, set()) - {(m, f)}] == []



def _leaves_out(call, index, name):
    """Whether a call leaves the parameter `name` to its default: not passed
    by keyword or through **kwargs, nor by position (index None: keyword-only)
    or through *args."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return False
    return index is None or (len(call.args) <= index
                             and not any(isinstance(a, ast.Starred) for a in call.args))


def _private_defaults():
    """(label, left) for each defaulted parameter of each private top-level
    function in src/: left holds, for each src/ call of the function,
    whether that call leaves the parameter to its default."""
    private, calls = [], {}
    for module, node in _top_level():
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            private.append((module, node))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                calls.setdefault(_called(sub), []).append(sub)
    out = []
    for module, fn in private:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
        defaulted += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        out += [(f"{module}.{fn.name}({name})",
                 [_leaves_out(call, index, name) for call in calls.get(fn.name, [])])
                for index, name in defaulted]
    assert out
    return out


def test_every_private_default_is_left_out_by_a_package_call():
    # a default that only the tests rely on keeps a second way of calling a
    # private function alive for them alone
    assert [label for label, left in _private_defaults() if not any(left)] == []


def test_every_private_default_is_set_by_a_package_call():
    # a parameter that only the tests set is a knob kept for them alone;
    # the package's calls would need no parameter there
    assert [label for label, left in _private_defaults() if all(left)] == []


def _factors(node):
    """The factors of a product, reading through the numerator of a quotient."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _factors(node.left)
    return [node]


def _is_lemma(node):
    """Whether node has the MMSE lemma's shape h + (1 - h) * x."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    h = ast.dump(node.left)
    return any(isinstance(f, ast.BinOp) and isinstance(f.op, ast.Sub)
               and isinstance(f.left, ast.Constant) and f.left.value == 1
               and ast.dump(f.right) == h for f in _factors(node.right))


def test_the_mmse_lemma_is_written_out_only_in_lift():
    # validate keeps its own copy as an oracle; propagate_llr's q + (1 - q) e
    # has the lemma's shape but is a Markov step's odds, not the lemma
    found = [f"{module}.{getattr(node, 'name', None)}: {ast.unparse(sub)}"
             for module, node in _top_level() if module != "validate"
             for sub in ast.walk(node) if _is_lemma(sub)]
    assert found == ["bounds._lift: h + (1.0 - h) * x", "hmm.propagate_llr: q + (1.0 - q) * e"]


def test_the_monte_carlo_step_kernels_have_one_caller_each():
    # pass C2 runs on every kept piece inside _scan, and only
    # entropy_rate_mc_many turns its weights into entropy terms
    kernels = {"_prefix_apply", "_entropy_terms"}
    found = [f"{module}.{getattr(node, 'name', None)}: {_called(sub)}"
             for module, node in _top_level() for sub in ast.walk(node)
             if _called(sub) in kernels]
    assert sorted(found) == ["hmm._scan: _prefix_apply", "hmm.entropy_rate_mc_many: _entropy_terms"]


def test_the_order_search_plans_have_one_reader_each():
    # the stacked builder alone reads the cost-table plan, and the stacked
    # dynamic program alone reads the subset lattice; a second search path
    # would need a second reader
    plans = {"_cost_plan", "_lattice"}
    found = []
    for module, node in _top_level():
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if isinstance(sub, (ast.Name, ast.Attribute)) and name in plans - {owner}:
                found.append(f"{module}.{owner}: {name}")
    assert sorted(found) == ["dist._best_orders: _lattice",
                             "dist._build_cost_tables: _cost_plan"]


def _keys_on_n(node):
    """Whether a setdefault call or a subscript takes something's `.n` as
    its key."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault":
        key = node.args[0] if node.args else None
    else:
        key = node.slice if isinstance(node, ast.Subscript) else None
    return isinstance(key, ast.Attribute) and key.attr == "n"


def test_one_stacking_loop_groups_pmfs_by_n():
    # the channel outputs, the entropies, both order searches and the
    # any-order oracle cut their same-n stacks through _by_stacks; another
    # grouping by n would be a second copy of its loop
    grouping, callers = [], []
    for module, node in _top_level():
        owner = f"{module}.{getattr(node, 'name', None)}"
        for sub in ast.walk(node):
            if _keys_on_n(sub):
                grouping.append(owner)
            if _called(sub) == "_by_stacks":
                callers.append(owner)
    assert grouping == ["dist._by_stacks"]
    assert sorted(callers) == ["dist.apply_bsc_many", "dist.best_case_mmse_given_output_many",
                               "dist.entropy_many", "dist.worst_case_mmse_many",
                               "validate._along_every_order"]


def test_the_channel_mix_has_three_callers():
    # the cost-table builder, the conditional MMSE and the row mixer that
    # every output law goes through; a per-pmf channel would be a fourth
    found = [f"{module}.{getattr(node, 'name', None)}" for module, node in _top_level()
             for sub in ast.walk(node) if _called(sub) == "_channel_mix"]
    assert sorted(found) == ["dist._build_cost_tables", "dist._conditional_mmse", "dist._mix_rows"]


def test_the_order_search_reaches_each_bound_by_one_path():
    # a one-member wrapper around the stacked search or the any-order oracle
    # would be a second path to it, and a bound that builds its own
    # BoundResult from a search a second result builder
    watched = {"_best_orders", "_mmse_along_orders_many", "_order_result"}
    found = {name: [] for name in watched}
    for module, node in _top_level():
        for sub in ast.walk(node):
            if _called(sub) in watched:
                found[_called(sub)].append(f"{module}.{getattr(node, 'name', None)}")
    assert {name: sorted(owners) for name, owners in found.items()} == {
        "_best_orders": ["bounds.conditional_vector_mmse_gerber", "bounds.vector_memory_noise",
                         "dist._search"],
        "_mmse_along_orders_many": ["dist.mmse_along_permutation", "validate._along_every_order"],
        "_order_result": ["bounds.conditional_vector_mmse_gerber",
                          "bounds.vector_mmse_gerber_many", "bounds.vector_upper_many"],
    }


@pytest.mark.parametrize("name", ["apply_bsc", "entropy", "mmse_along_permutation"])
def test_the_single_calls_loop_over_nothing_of_their_own(name):
    # each is the one-member case of a stacked helper, which holds the loop
    [fn] = [node for module, node in _top_level()
            if module == "dist" and isinstance(node, ast.FunctionDef) and node.name == name]
    assert [ast.unparse(sub) for sub in ast.walk(fn)
            if isinstance(sub, (ast.For, ast.comprehension, ast.While))] == []
