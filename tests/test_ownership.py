"""Decisions that one module owns, read from the package's syntax trees.

- The packed-hex bitmap format: only ``sets`` packs or unpacks bits, and
  only ``sets`` encodes hex (``.hex()``) or decodes it (``a2b_hex``), so the
  format has one owner in both directions.
- The representation: a ``ResidueSet`` holds its modulus and one array of
  little-endian 64-bit words, and no module reads it as a byte per residue
  (there is no ``.bits()``).
- The enumeration budget: only ``density.check_horizon`` compares a value
  with ``DEFAULT_ENUM_BUDGET``.
- A valid modulus: ``sets.check_budget`` refuses one below 1, and the
  covers' general paths handle m = 1, so ``oracles`` has no ``m == 1``
  branch.
- Settings: a parameter has a default only where some caller passes
  another value, and ``axioms`` has no flag that one value serves.
- The sparse/dense rule: only ``sets.Rotations.__init__`` reads
  ``_SPARSE_RATIO``, handing its limit to the listing, and ``construction``
  rotates words, scatters and gathers only through ``Rotations``, which
  serves ``step`` alone.
- The checker's independence: ``check_claimA`` rotates through
  ``sets.rotated``, the one integer rotation, and neither it nor any
  function of ``construction`` or ``sets`` it reaches names ``Rotations``
  or ``sumset_mod``; ``step`` and ``Rotations`` name neither ``rotated``
  nor ``sumset_mod``.  So no rotation is shared between the builder and
  the checker.
- No transform: no module names ``fft``.
- The listing: ``Rotations`` takes a residue set only, and ``sets`` lists
  words alone (``_word_members``, in one pass): there is no listing of
  integer tables (``_sparse_members``), no min scatter (``minimum.at``)
  and no block size (``_BLOCK``).
- ``construction.Level`` holds the fields its JSON holds, and no more.
- The covers: ``oracles`` builds its CRT products with the set algebra, so
  it tiles nothing (no ``np.tile``) and packs bytes (``from_bits``) only in
  ``_crt_product``, each a component indicator of length p (a prime, for
  the primes cover) or q (a prime power, for the powers cover).
- Refusals in ``sets``: only ``check_budget`` (a modulus past the budget)
  raises ``ResourceLimitError``.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np

import buckdens
from buckdens.cli import build_parser
from buckdens.construction import Level
from buckdens.sets import ResidueSet

PACKAGE = Path(buckdens.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _enclosing_functions(tree):
    """(node, name of the innermost function holding it) for every node."""
    def walk(node, owner):
        yield node, owner
        name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        for child in ast.iter_child_nodes(node):
            yield from walk(child, name)
    return walk(tree, None)


def test_only_sets_packs_unpacks_or_parses_hex():
    calls = {(name, node.func.attr)
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("packbits", "unpackbits", "hex", "fromhex",
                                    "a2b_hex", "unhexlify", "b2a_hex", "hexlify")}
    assert calls == {("sets.py", "packbits"), ("sets.py", "unpackbits"),
                     ("sets.py", "hex"), ("sets.py", "a2b_hex")}


def test_a_residue_set_holds_its_modulus_and_one_word_array():
    assert ResidueSet.__slots__ == ("modulus", "_words")
    for k in (1, 64, 65, 5040):
        words = ResidueSet(k, [0, k - 1]).words()
        assert words.dtype == np.dtype("<u8") and words.shape == (-(-k // 64),)


def test_no_module_reads_a_residue_set_byte_by_byte():
    calls = [(name, ast.unparse(node)) for name, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "bits"]
    assert calls == []


def test_only_check_horizon_compares_with_the_enumeration_budget():
    owners = {(name, owner)
              for name, tree in TREES.items()
              for node, owner in _enclosing_functions(tree)
              if isinstance(node, ast.Compare)
              and any(isinstance(n, ast.Name) and n.id == "DEFAULT_ENUM_BUDGET"
                      for n in ast.walk(node))}
    assert owners == {("density.py", "check_horizon")}


def test_only_rotations_init_reads_the_sparse_ratio():
    owners = {(name, owner)
              for name, tree in TREES.items()
              for owner, fn in _qualified_functions(tree)
              for node in ast.walk(fn)
              if isinstance(node, ast.Name) and node.id == "_SPARSE_RATIO"
              and isinstance(node.ctx, ast.Load)}
    assert owners == {("sets.py", "Rotations.__init__")}


def test_construction_rotates_only_through_rotations():
    names = {node.id if isinstance(node, ast.Name) else
             node.attr if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(TREES["construction.py"])
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert names.isdisjoint({"combine_rotated", "_word_members"})
    assert "Rotations" in names


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _reached(start, modules):
    """The functions of ``modules`` that ``start`` reaches by name (methods
    only by their qualified names, so none), and every name they use."""
    functions = {name: fn for module in modules
                 for name, fn in _qualified_functions(TREES[module])}
    reached, todo = set(), [start]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += [n for n in _names(functions[name]) if n in functions and n not in reached]
    return reached, set().union(*(_names(functions[name]) for name in reached))


def test_check_claimA_names_neither_rotations_nor_sumset_mod():
    reached, names = _reached("check_claimA", ["construction.py"])
    assert {"check_claimA", "_class_sums", "_level_classes"} <= reached
    assert "rotated" in names
    assert names.isdisjoint({"Rotations", "sumset_mod", "combine", "gain", "_rolled"})


def test_builder_and_checker_share_no_rotation():
    # the builder's rotations are Rotations, the checker's sets.rotated,
    # and neither side reaches the other's
    step = dict(_qualified_functions(TREES["construction.py"]))["step"]
    rotations = next(node for node in TREES["sets.py"].body
                     if isinstance(node, ast.ClassDef) and node.name == "Rotations")
    assert (_names(step) | _names(rotations)).isdisjoint({"rotated", "sumset_mod"})
    reached, names = _reached("check_claimA", ["construction.py", "sets.py"])
    assert {"rotated", "fold", "union", "rebase"} <= reached
    assert names.isdisjoint({"Rotations", "sumset_mod"})


def test_no_module_names_fft():
    named = {(module, n) for module, tree in TREES.items() for n in _names(tree)
             if "fft" in n.lower()}
    imported = {(module, alias.name) for module, tree in TREES.items()
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if "fft" in alias.name.lower()}
    assert named | imported == set()


def test_rotations_take_residue_sets_and_only_words_are_listed():
    tree = TREES["sets.py"]
    init = dict(_qualified_functions(tree))["Rotations.__init__"]
    assert not any(isinstance(node, ast.Name) and node.id == "isinstance"
                   for node in ast.walk(init))
    names = {node.id if isinstance(node, ast.Name) else
             node.attr if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef))}
    assert names.isdisjoint({"_sparse_members", "_BLOCK"})
    assert not any(isinstance(node, ast.Attribute) and node.attr == "at"
                   and ast.unparse(node.value).endswith("minimum")
                   for node in ast.walk(tree))


def test_oracles_tile_nothing_and_pack_only_the_crt_components():
    owners = {(node.func.attr, owner)
              for owner, fn in _qualified_functions(TREES["oracles.py"])
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("tile", "from_bits")}
    assert owners == {("from_bits", "_crt_product")}


def test_sets_refuses_only_in_check_budget():
    owners = {owner for owner, fn in _qualified_functions(TREES["sets.py"])
              for node in ast.walk(fn)
              if isinstance(node, ast.Raise) and node.exc is not None
              and "ResourceLimitError" in {n.id for n in ast.walk(node.exc)
                                          if isinstance(n, ast.Name)}}
    assert owners == {"check_budget"}


def test_level_holds_only_its_json_fields():
    assert [f.name for f in dataclasses.fields(Level)] == [
        "n", "H", "h", "k_chosen", "density_a", "sum_lower", "sum_upper"]


def test_oracles_have_no_modulus_one_branch():
    branches = [ast.unparse(node) for node in ast.walk(TREES["oracles.py"])
                if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                and node.left.id == "m" and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value == 1]
    assert branches == []


def _qualified_functions(tree):
    """(Class.method or function name, node) for every function in a module."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def test_only_these_parameters_have_defaults():
    defaulted = set()
    for module, tree in TREES.items():
        for name, fn in _qualified_functions(tree):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted |= {(module, name, a.arg)
                          for a in positional[len(positional) - len(args.defaults):]}
            defaulted |= {(module, name, a.arg)
                          for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    assert defaulted == {
        ("cli.py", "main", "argv"),
        ("construction.py", "construct", "allow_deep"),
        ("construction.py", "tower_to_json", "config"),
        ("density.py", "proxies", "window"),
        ("oracles.py", "FiniteOracle.__init__", "name"),
        ("oracles.py", "EnumeratedOracle.__init__", "name"),
        ("sets.py", "ResidueSet.__init__", "residues"),
    }


def test_axioms_takes_only_samples_seed_and_out():
    commands = next(action for action in build_parser()._actions
                    if action.dest == "command")
    options = {option for action in commands.choices["axioms"]._actions
               for option in action.option_strings} - {"-h", "--help"}
    assert options == {"--samples", "--seed", "--out"}
