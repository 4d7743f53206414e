"""Dead-code checks on the package source, with the standard library's ast.

Every name a module of src/injres imports must be used in that module,
every top-level private definition (a name starting with "_") must be
referenced somewhere in src/ or tests/, every public one and every public
method by the program itself, every parameter with a default must be set
by some call, and every command-line flag must be read by the CLI.  Only
ring.py reads how a coefficient is stored, only a PrimeIndex names a hull,
only resolution.py applies d1 to a twisted argument, and every monomial
acts through monomial_act.  cli.py imports only the reduction path at load
time, and only cohomology.py evaluates Yoneda products.  Only resolution.py
reads DELTA, whose rows state the slots of every term, and the copies of
E(Z,W) are named literally only in DELTA and cohomology._LIFTS.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "injres"
BENCH = ROOT / "perfbench"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree):
    """Names read anywhere in the tree: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported_names(tree):
    """(bound name, line) of every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = _loaded_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_private_definition_is_referenced():
    trees = {path: _parse(path) for path in
             sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        referenced |= {name for name, _ in _imported_names(tree)}
    dead = [f"{path.name}:{line} {name}"
            for path, tree in trees.items() if path.parent == PACKAGE
            for name, line in _private_definitions(tree)
            if name not in referenced]
    assert not dead, "unreferenced private definitions: " + ", ".join(dead)


def test_cli_loads_only_the_reduction_path():
    # `injres reduce` is one fresh process per query, so cli's module-level
    # imports take from the package only the reduction path and the report
    # type; the verification layers are bound on a command's first use
    allowed = {"ring", "linalg", "gfrac", "oracle", "report"}
    taken = []
    for node in _parse(PACKAGE / "cli.py").body:
        if isinstance(node, ast.ImportFrom) and node.level:
            taken += [node.module] if node.module else \
                [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            taken += [alias.name.removeprefix(PACKAGE.name + ".")
                      for alias in node.names
                      if alias.name.split(".")[0] == PACKAGE.name]
    assert not set(taken) - allowed, sorted(set(taken) - allowed)


def test_every_cli_flag_is_read():
    # a flag is read as an attribute of the parsed namespace, args.<dest>;
    # bare names do not count (suite_bass has a local variable "table")
    from injres.cli import build_parser
    read = {node.attr for node in ast.walk(_parse(PACKAGE / "cli.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    parsers, unread = [build_parser()], []
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action.choices, dict):  # the subcommands
                parsers += action.choices.values()
            if action.dest != "help" and action.dest not in read:
                unread.append(action.dest)
    assert not unread, "flags never read: " + ", ".join(unread)


def _defaulted_parameters(tree):
    """(function name, parameter, position, line) of every parameter with a
    default.  The position counts the arguments a caller passes, so self and
    cls are skipped; it is None for a keyword-only parameter.  A class's
    __init__ is named after the class, as its callers name it."""
    owner = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for f in cls.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        name = cls.name if cls and node.name == "__init__" else node.name
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        args = node.args
        positional = (args.posonlyargs + args.args)[1 if bound else 0:]
        first = len(positional) - len(args.defaults)
        for pos, arg in enumerate(positional[first:], first):
            yield name, arg.arg, pos, node.lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, node.lineno


def _call_name(func, cls):
    """The function a call reaches, by name: cls(...) and super().__init__(...)
    inside a class reach the class and its first base."""
    if isinstance(func, ast.Name):
        return cls.name if func.id == "cls" and cls else func.id
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "__init__" and cls and cls.bases and \
            isinstance(func.value, ast.Call) and \
            isinstance(func.value.func, ast.Name) and func.value.func.id == "super":
        base = cls.bases[0]
        return base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
    return func.attr


def _passed_arguments(tree, out, cls=None):
    """Record, per function name, the positional counts and keyword names of
    every call in the tree; a *args or **kwargs call passes everything."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node.func, cls)
            if name is not None:
                counts, keywords = out.setdefault(name, (set(), set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                counts.add(float("inf") if starred else len(node.args))
                keywords.update(kw.arg or "*" for kw in node.keywords)
        _passed_arguments(node, out,
                          node if isinstance(node, ast.ClassDef) else cls)
    return out


def test_every_default_is_overridden_by_some_call():
    # a default that no call overrides is a constant spelled as an option
    callers = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.rglob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    passed = {}
    for path in callers:
        _passed_arguments(_parse(path), passed)
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, param, pos, line in _defaulted_parameters(_parse(path)):
            counts, keywords = passed.get(name, ((), ()))
            if param in keywords or "*" in keywords or \
                    (pos is not None and any(c > pos for c in counts)):
                continue
            never.append(f"{path.name}:{line} {name}({param})")
    assert not never, "defaults no call overrides: " + ", ".join(never)


def _public_definitions(tree):
    """(label, name, line, is a method) of every public top-level def or
    class and every public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield f"{node.name}.{f.name}", f.name, f.lineno, True


def test_every_public_definition_is_used_by_the_program():
    # counted: an import by another module, an attribute read, a bare name
    # in the defining module, and any of these in perfbench; a bare name in
    # another module of the package is a local variable, not a reference.
    # A method counts only when its name is read as an attribute in the
    # package or named in perfbench
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    elsewhere = set()
    for tree in modules.values():
        elsewhere |= {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
    for path in sorted(BENCH.rglob("*.py")):
        tree = _parse(path)
        elsewhere |= _loaded_names(tree)
        elsewhere |= {name for name, _ in _imported_names(tree)}
    unused = []
    for path, tree in modules.items():
        imported = {name for other, t in modules.items() if other != path
                    for name, _ in _imported_names(t)}
        own = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        unused += [f"{path.name}:{line} {label}"
                   for label, name, line, method in _public_definitions(tree)
                   if name not in (elsewhere if method
                                   else elsewhere | imported | own)]
    assert not unused, "public definitions the program never uses: " + \
        ", ".join(unused)


def test_only_ring_reads_the_coefficient_representation():
    # the residue int of an Fp (.v) and the characteristic of a Field
    # (.char) are read in ring.py alone, so the choice between the fields'
    # representations is made in one module
    readers = [f"{path.name}:{node.lineno} .{node.attr}"
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "ring.py"
               for node in ast.walk(_parse(path))
               if isinstance(node, ast.Attribute) and node.attr in ("v", "char")]
    assert not readers, "reads outside ring.py: " + ", ".join(readers)


def test_a_hull_is_named_by_its_prime_index():
    # omega takes a PrimeIndex, never a string, and only hulls.py may test
    # a polynomial against an axis: PrimeIndex.height_one there decides
    # whether it names Z, W or a prime of its own
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name, first = _call_name(node.func, None), node.args[0]
            if name == "omega" and isinstance(first, ast.Constant) and \
                    isinstance(first.value, str):
                found.append(f"{path.name}:{node.lineno} omega({first.value!r})")
            if name == "normalize_monic" and path.name != "hulls.py" and \
                    isinstance(first, ast.Call) and \
                    _call_name(first.func, None) == "var":
                found.append(f"{path.name}:{node.lineno} normalize_monic(var)")
    assert not found, "hulls named outside PrimeIndex: " + ", ".join(found)


def test_only_resolution_applies_d1_to_a_twisted_argument():
    # d1 after an argument twist is a component of a table applied by
    # resolution.chain_map; no other module writes the pattern by hand
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "resolution.py"
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call)
             and _call_name(node.func, None) == "d1_f"
             and any(isinstance(arg, ast.Call)
                     and _call_name(arg.func, None) == "monomial_act"
                     for arg in node.args)]
    assert not found, "d1_f of a monomial_act outside resolution.py: " + \
        ", ".join(found)


def test_every_monomial_acts_through_monomial_act():
    # a monomial acts on a hull element only by monomial_act, with the
    # exponents of hulls.VAR for a variable: no second operator mul_arg,
    # and no one-term QuadPoly built to be looped over by act
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef) and node.name == "mul_arg":
                found.append(f"{path.name}:{node.lineno} def mul_arg")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if _call_name(func, None) == "mul_arg":
                found.append(f"{path.name}:{node.lineno} mul_arg(...)")
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("var", "mono") and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == "QuadPoly":
                found.append(f"{path.name}:{node.lineno} QuadPoly.{func.attr}")
    assert not found, "a monomial acting around monomial_act: " + \
        ", ".join(found)


def test_the_oracle_takes_only_the_gcd_and_the_row_reducer():
    # criterion 8 means something only while the oracle shares no algorithm
    # with the reduction pipeline: no resultant and no series inversion may
    # reach its verdict, so from the package it takes only these two names
    taken = set()
    for node in ast.walk(_parse(PACKAGE / "oracle.py")):
        if isinstance(node, ast.ImportFrom) and \
                (node.level or node.module.split(".")[0] == PACKAGE.name):
            module = (node.module or "").removeprefix(PACKAGE.name + ".")
            taken |= {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            taken |= {alias.name for alias in node.names
                      if alias.name.split(".")[0] == PACKAGE.name}
    assert taken == {"ring.bivar_gcd", "linalg.Reducer"}, sorted(taken)


def test_the_product_table_has_one_home():
    # the Yoneda products are evaluated, and their lifts applied, only in
    # cohomology.py, which builds both Yoneda reports from them
    found = [f"{path.name}:{node.lineno} {_call_name(node.func, None)}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "cohomology.py"
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call) and _call_name(node.func, None)
             in ("yoneda_product", "yoneda_lift_stage")]
    assert not found, "Yoneda products outside cohomology.py: " + \
        ", ".join(found)


def test_the_slot_table_has_one_home():
    # the slots of each term are the keys of resolution.DELTA's rows, read
    # only in resolution.py, and the copies of E(Z,W) are named literally
    # only in DELTA and cohomology._LIFTS: no second slot table or slot
    # numbering can come back beside them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        tables = {id(node) for table in tree.body
                  if isinstance(table, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id in ("DELTA", "_LIFTS")
                          for t in table.targets)
                  for node in ast.walk(table.value)}
        for node in ast.walk(tree):
            if path.name != "resolution.py" and (
                    isinstance(node, ast.Name) and node.id == "DELTA"
                    or isinstance(node, ast.Attribute) and node.attr == "DELTA"
                    or isinstance(node, ast.alias) and node.name == "DELTA"):
                found.append(f"{path.name}:{getattr(node, 'lineno', '')} DELTA")
            if isinstance(node, ast.Constant) and \
                    node.value in ("max0", "max1") and id(node) not in tables:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, "the slot table outside DELTA: " + ", ".join(found)
