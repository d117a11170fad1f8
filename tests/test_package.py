"""Package-wide source checks."""

import ast
import importlib
from pathlib import Path

import kinkeq

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(Path(kinkeq.__file__).parent.glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "scripts").glob("*.py"))


def test_no_assert_statements():
    """Result guards raise KinkEqError subclasses; ``python -O`` strips asserts."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def test_no_private_cross_module_imports():
    """A kinkeq module imports only public names from the others."""
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "kinkeq")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert MODULES and not found


LAYERS = [
    {"errors"},
    {"exact"},
    {"moves"},
    {"formats"},
    {"reducer", "cct", "goeritz", "worked_examples"},
    {"cli"},
]


def _package_imports(tree):
    """The kinkeq modules that a module's source imports from, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1 and node.module:
                yield parts[0]
            elif node.level == 1 or parts == ["kinkeq"]:
                yield from (alias.name for alias in node.names)
            elif parts[0] == "kinkeq":
                yield parts[1]
        elif isinstance(node, ast.Import):
            yield from (
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("kinkeq.")
            )


def test_import_layers():
    """Each module imports only from a strictly earlier layer of ``LAYERS``,
    so text formats never reach the reducer and nothing reaches the CLI;
    ``__init__`` re-exports and is exempt."""
    layer = {name: depth for depth, names in enumerate(LAYERS) for name in names}
    stems = {path.stem for path in MODULES} - {"__init__"}
    assert stems == set(layer), stems ^ set(layer)
    found = [
        f"{path.stem} -> {imported}"
        for path in MODULES
        if path.stem != "__init__"
        for imported in _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        if layer.get(imported, len(LAYERS)) >= layer[path.stem]
    ]
    assert not found, found


def _names(path, names):
    """The lines at which the source of ``path`` names one of ``names``, as
    a name, an attribute or an imported alias."""
    return [
        f"{path.name}:{getattr(node, 'lineno', 0)} {name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in [
            getattr(node, "id", None)
            or getattr(node, "attr", None)
            or (node.name if isinstance(node, ast.alias) else None)
        ]
        if name in names
    ]


def test_moves_applied_in_one_place():
    """Only ``exact`` (the kernels) and ``moves`` know how a move acts on a
    matrix, and only ``moves`` runs the checked path, ``apply_move`` and
    ``replay``, for the verifier.  Every other module builds its moves
    itself and applies them by the unchecked ``SymMatrix.gram``, so it
    names none of ``replay``, ``apply_move``, ``congruence``,
    ``block_sum`` and ``strip_block``; ``__init__`` may re-export."""
    checked, kernels = {"replay", "apply_move"}, {"congruence", "block_sum", "strip_block"}
    banned = {"moves.py": set(), "__init__.py": set(), "exact.py": checked}
    found = [
        hit
        for path in MODULES
        for hit in _names(path, banned.get(path.name, checked | kernels))
    ]
    assert MODULES and not found, found


def test_verifier_never_uses_the_reducers_closed_form():
    """``moves`` applies every move by its kernel and never reaches for
    ``SymMatrix.unit_complement`` or the unchecked product
    ``SymMatrix.gram``, so the verifier stays independent of the shortcuts
    the reducer takes."""
    found = _names(ROOT / "src" / "kinkeq" / "moves.py", {"unit_complement", "gram"})
    assert not found, found


def test_reducer_never_checks_its_own_moves():
    """The reducer builds every basis change itself, so it never names the
    checked move path: neither ``replay`` nor ``apply_move`` nor
    ``congruence``."""
    found = _names(
        ROOT / "src" / "kinkeq" / "reducer.py", {"replay", "apply_move", "congruence"}
    )
    assert not found, found


def test_round_takes_one_basis_and_one_gram():
    """``_elimination_round`` takes its basis, integralization included,
    from the public step ``integralize_first_row``, the reducer's one
    integralization function, and its matrix from one ``gram``: no private
    second builder exists, the round pops no move back off, and the
    reducer builds no second shear to fuse and transposes no basis into
    rows."""
    path = ROOT / "src" / "kinkeq" / "reducer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    round_ = functions["_elimination_round"]
    assert _calls(round_, "integralize_first_row")
    assert "_integralizing_basis" not in functions
    grams = [
        node
        for node in ast.walk(round_)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "gram"
    ]
    assert len(grams) == 1
    found = _names(path, {"_integralizing_basis", "shear", "matmul", "transpose", "pop"})
    assert not found, found


def test_reduce_takes_one_path():
    """``reduce`` runs every target through one round loop: a positive
    target reduces -G there instead of calling ``reduce`` again, so one
    ``Trace`` is built per call."""
    tree = ast.parse((ROOT / "src" / "kinkeq" / "reducer.py").read_text(encoding="utf-8"))
    (reduce_,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "reduce"
    ]
    assert not _calls(reduce_, "reduce")
    traces = [
        node
        for node in ast.walk(reduce_)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Trace"
    ]
    assert len(traces) == 1


def test_cct_search_keeps_one_function_per_row():
    """``cct_search`` defines exactly ``fill``, which places one row and
    hands the next its canonical state, and ``fill``'s ``rec`` generator,
    which fills that row column by column: no separate per-row candidate
    builder rescans the placed rows."""
    tree = ast.parse((ROOT / "src" / "kinkeq" / "cct.py").read_text(encoding="utf-8"))
    (search,) = [node for node in tree.body if getattr(node, "name", None) == "cct_search"]
    defined = sorted(node.name for node in ast.walk(search) if isinstance(node, ast.FunctionDef))
    assert defined == ["cct_search", "fill", "rec"]


def test_matrices_built_only_in_exact():
    """Only ``exact`` calls the ``SymMatrix`` and ``IntMatrix`` constructors;
    everything else goes through their classmethods and the move kernels,
    so the least-``den`` lift has one owner."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("SymMatrix", "IntMatrix")
    ]
    assert MODULES and not found, found


def test_traced_layers_exist():
    """Every ``kinkeq.<module>.<function>`` that the bench tracer wraps
    exists, so a rename cannot silently drop a layer from ``--trace 1``.
    ``LAYERS`` is read from the source: the tracer is not imported."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"kinkeq.{module}"), name, None))
    ]
    assert layers and not missing, missing


def _exact_functions():
    """Every function of ``exact`` by name, methods as ``Class.name``."""
    tree = ast.parse((ROOT / "src" / "kinkeq" / "exact.py").read_text(encoding="utf-8"))
    return {
        f"{scope.name}.{node.name}" if scope is not tree else node.name: node
        for scope in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]
        for node in scope.body
        if isinstance(node, ast.FunctionDef)
    }


def _looping_functions(is_update):
    """Every function of ``exact`` by name, and the names of those that
    loop a node for which ``is_update`` holds."""
    functions = _exact_functions()
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looping = {
        name
        for name, function in functions.items()
        for loop in ast.walk(function)
        if isinstance(loop, loops) and any(map(is_update, ast.walk(loop)))
    }
    return functions, looping


def _calls(function, name):
    return any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        for node in ast.walk(function)
    )


def _is_bareiss_update(node):
    """``(x * y - z * w) // d``: one fraction-free elimination update."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (node.left.left, node.left.right)
        )
    )


def test_one_bareiss_loop():
    """``_eliminate`` and ``_det_int`` both run ``_bareiss_step``, and it is
    the only function in ``exact`` that loops a Bareiss update, so a second
    copy of the elimination cannot come back unnoticed."""
    functions, looping = _looping_functions(_is_bareiss_update)
    assert looping == {"_bareiss_step"}, looping
    for caller in ("_eliminate", "_det_int"):
        assert _calls(functions[caller], "_bareiss_step"), caller


def _uses(function, name):
    """Whether ``function`` names ``name``, as a call or as an argument."""
    return any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(function))


def _is_isinstance_of_fraction(node):
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and any(_uses(arg, "Fraction") for arg in node.args[1:])
    )


def test_one_reader_per_kind_of_number():
    """``exact`` reads sizes and indices by ``_read_index``, integer rows by
    ``_read_int_rows`` and rational rows by ``_lift_rows``: only the two
    integer readers reach for ``operator.index``, only the lift tests
    entries against ``(int, Fraction)`` (the kink kernels' int sign checks
    are not entry reads), and every constructor and builder reads through
    them, so a second hand-written check cannot come back unnoticed."""
    functions = _exact_functions()
    assert {name for name, f in functions.items() if _uses(f, "index")} == {
        "_read_index",
        "_read_int_rows",
    }
    testers = {
        name
        for name, f in functions.items()
        if any(map(_is_isinstance_of_fraction, ast.walk(f)))
    }
    assert testers == {"_lift_rows"}, testers
    readers = {
        "_read_index": ["IntMatrix.from_rows", "IntMatrix.shear", "IntMatrix.rotation"],
        "_read_int_rows": ["IntMatrix.from_rows", "extend_primitive", "SymMatrix.unit_complement"],
        "_lift_rows": ["SymMatrix.from_rows", "SymMatrix.diagonal", "primitive_scale"],
    }
    missing = [
        f"{caller} -> {reader}"
        for reader, callers in readers.items()
        for caller in callers
        if not _uses(functions[caller], reader)
    ]
    assert not missing, missing


def _is_product_term(node):
    """A multiply-accumulate of a matrix product: ``sum`` over a product,
    or ``acc + p * y``, a name plus a product."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
        return any(
            isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Mult)
            for arg in node.args
            for inner in ast.walk(arg)
        )
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Name)
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Mult)
    )


def test_one_matrix_product():
    """``SymMatrix.gram`` and ``IntMatrix.matmul`` both call
    ``_row_product``, and it is the only function in ``exact`` that loops a
    multiply-accumulate, so a second matrix product cannot come back
    unnoticed.  The checked ``congruence`` reaches it only through
    ``gram``: its checks and then the one unchecked product."""
    functions, looping = _looping_functions(_is_product_term)
    assert looping == {"_row_product"}, looping
    for caller in ("SymMatrix.gram", "IntMatrix.matmul"):
        assert _calls(functions[caller], "_row_product"), caller
    congruence = functions["congruence"]
    assert not _calls(congruence, "_row_product")
    assert any(
        isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "gram"
        for node in ast.walk(congruence)
    )


def test_numbers_read_only_in_formats():
    """``goeritz`` and ``cli`` read numbers with the readers in ``formats``,
    so the token grammar lives there alone: neither calls ``int`` or
    ``Fraction`` nor passes them on, as ``type=int`` or ``map(int, ...)`` do."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name in ("goeritz.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        for name in [node.func, *node.args, *(keyword.value for keyword in node.keywords)]
        if isinstance(name, ast.Name) and name.id in ("int", "Fraction")
    ]
    assert MODULES and not found


DEFAULTS_ALLOWED = {
    "cli.main(argv)",
    "errors.ParseError.__init__(line)",
    "exact.IntMatrix.from_rows(cols)",
}


def _defaulted_parameters(node, prefix):
    """``prefix.name(param)`` for every parameter with a default of every
    function under ``node``, classes and nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{name}({a.arg})" for a in defaulted)
            yield from _defaulted_parameters(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, f"{prefix}.{child.name}")
        else:
            yield from _defaulted_parameters(child, prefix)


def test_no_new_parameter_defaults():
    """A parameter with a default is a behaviour knob; only the listed ones
    exist, and each is an optional input rather than a setting."""
    found = {
        param
        for path in MODULES
        for param in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert MODULES and found <= DEFAULTS_ALLOWED, sorted(found - DEFAULTS_ALLOWED)
