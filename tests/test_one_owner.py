"""One owner per rule: one fork site, which alone pickles what a child
sends back, entered only by the export stream and the sweep, so no forked
process forks; pipes only there and for the export child's row counts; one
module that turns hop delays into transit rounds, and one that splits loss
events; a kernel that opens no file; only the fork helper moves or
removes files, publishes a stage or asks for a process id; one rule that
sizes both exports' chunks by values; no seed, since nothing in the model
is random; the rate rule's domain checks and messages
only in the protocol; the LP libraries, pickle and mmap load only inside
the calls that use them; no module imports scipy, whose HiGHS extension
only the optimum loads; and none sets an LP's costs through the binding's
numpy setter."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mimdsim"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_os_fork_is_called_only_in_the_fork_helper():
    sites = {}
    for name, tree in _modules().items():
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and (getattr(node.func, "attr", None) == "fork"
                      or getattr(node.func, "id", None) == "fork")]
        if calls:
            sites[name] = len(calls)
    assert sites == {"_fork.py": 1}


def _callers(name: str) -> set[str]:
    """``<module>:<qualified def>`` of every function or method that calls
    ``name``, by name or as an attribute."""
    found = set()

    def visit(node: ast.AST, module: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
                found.add(f"{module}:{'.'.join(scope)}")
            visit(child, module, inner)

    for module, tree in _modules().items():
        visit(tree, module, ())
    return found


def test_only_the_export_stream_and_the_sweep_fork():
    # the export child only writes rows, and the sweep child runs entries
    # unstreamed, so neither forks again
    assert _callers("forked") == {"kernel.py:CsvStream._fork", "cli.py:_run_in_two"}


def test_only_the_fork_helper_imports_pickle():
    importers = sorted(name for name, tree in _modules().items() for node in ast.walk(tree)
                       if isinstance(node, ast.Import)
                       and "pickle" in (alias.name.split(".")[0] for alias in node.names)
                       or isinstance(node, ast.ImportFrom)
                       and (node.module or "").split(".")[0] == "pickle")
    assert importers == ["_fork.py"]


def test_no_module_imports_dataclasses():
    # it loads inspect, ast, dis and tokenize; the records are named tuples
    importers = sorted(name for name, tree in _modules().items() for node in ast.walk(tree)
                       if isinstance(node, ast.Import)
                       and "dataclasses" in (alias.name.split(".")[0] for alias in node.names)
                       or isinstance(node, ast.ImportFrom)
                       and (node.module or "").split(".")[0] == "dataclasses")
    assert importers == []


def test_os_pipe_is_called_only_in_the_fork_helper_and_the_export_stream():
    sites = sorted(name for name, tree in _modules().items() for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "pipe")
    assert sites == ["_fork.py", "kernel.py"]


def test_only_the_model_reads_hop_delays_or_pre_delays():
    readers: dict[str, set[str]] = {"hop_delays": set(), "pre_delay_at": set()}
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                readers[node.attr].add(name)
    assert readers == {"hop_delays": {"model.py"}, "pre_delay_at": {"model.py"}}


def test_loss_events_are_split_in_the_kernel_without_per_event_dicts():
    modules = _modules()
    callers = {name for name, tree in modules.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and "allocate_loss" in (getattr(node.func, "attr", None),
                                       getattr(node.func, "id", None))}
    assert callers == {"kernel.py"}
    run = next(node for node in modules["kernel.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert not [node for node in ast.walk(run) if isinstance(node, ast.DictComp)]


def test_the_kernel_run_opens_no_file():
    # the per-round hook may write files; run itself only calls it
    run = next(node for node in _modules()["kernel.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    names = {node.id for node in ast.walk(run) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(run) if isinstance(node, ast.Attribute)}
    assert not names & {"open", "Path", "os", "io", "shutil"}
    assert not attrs & {"open", "mkdir", "touch", "unlink", "replace", "rename",
                        "write_text", "write_bytes", "read_text", "read_bytes"}


def test_only_the_fork_helper_moves_or_removes_files():
    # os.replace, os.remove, Path.unlink or rmdir, or shutil.rmtree: only
    # the stage's owner publishes or discards
    movers = set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if (called in ("unlink", "rmdir", "rmtree", "rename", "removedirs")
                    or called in ("replace", "remove")
                    and getattr(getattr(func, "value", None), "id", None) == "os"):
                movers.add(name)
    assert movers == {"_fork.py"}


def test_only_the_fork_helper_publishes_a_stage():
    # forked publishes after the reap; no caller picks what to publish
    callers = {name for name, tree in _modules().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and "publish" in (getattr(node.func, "attr", None),
                                 getattr(node.func, "id", None))}
    assert callers == {"_fork.py"}


def test_only_the_fork_helper_asks_for_a_process_id():
    # the fork helper alone tells whether a child's parent has died
    callers = {name for name, tree in _modules().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) in ("getpid", "getppid")}
    assert callers == {"_fork.py"}


def test_both_exports_size_their_chunks_by_the_one_value_rule():
    # the streamed and the in-process export each call _chunk_rows, the one
    # reader of the value budget, and no row count is kept beside it
    modules = _modules()
    constants = {target.id for tree in modules.values() for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name)
                 and ("CHUNK" in target.id or "ROWS" in target.id)}
    assert constants == {"_CSV_CHUNK_VALUES"}
    defs = {node.name: node for node in modules["kernel.py"].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    readers = {name for name, node in defs.items() for sub in ast.walk(node)
               if isinstance(sub, ast.Name) and sub.id == "_CSV_CHUNK_VALUES"}
    assert readers == {"_chunk_rows"}
    callers = {name for name, node in defs.items() for sub in ast.walk(node)
               if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_chunk_rows"}
    assert callers == {"CsvStream", "export_trace"}


def test_no_module_reads_a_seed():
    readers = sorted(name for name, tree in _modules().items() for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "seed")
    assert readers == []


def _import_time_nodes(node: ast.AST):
    """The import statements that run when the module is imported: every one
    outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _import_time_nodes(child)


def test_no_module_imports_numpy_scipy_fractions_pickle_or_mmap_at_import_time():
    found = []
    for name, tree in _modules().items():
        for node in _import_time_nodes(tree):
            roots = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            found += [(name, r) for r in roots
                      if r.split(".")[0] in ("numpy", "scipy", "fractions", "pickle", "mmap")]
    assert found == []


def test_no_module_imports_scipy_and_only_the_optimum_loads_highs():
    importers, loaders = [], set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                importers += [(name, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                importers.append((name, node.module))
            # a name, an attribute or an imported alias
            if "ExtensionFileLoader" in (getattr(node, "id", None), getattr(node, "attr", None),
                                         getattr(node, "name", None)):
                loaders.add(name)
    assert importers == []
    assert loaders == {"optimum.py"}


def test_no_module_sets_a_highs_lp_s_col_cost():
    # the binding's col_cost_ setter imports numpy; HiGHS builds the costs itself
    setters = sorted(name for name, tree in _modules().items() for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "col_cost_"
                     and isinstance(node.ctx, ast.Store)
                     or isinstance(node, ast.Constant) and node.value == "col_cost_")
    assert setters == []


# the rate rule's domain errors, as protocol words them
RULE_MESSAGES = ("outside [0,1]", "send rate overflowed", "non-positive send rate",
                 "negative rcvd", "beyond tolerance")


def test_the_rate_rule_s_domain_messages_live_only_in_the_protocol():
    # the kernel applies the rule inline, and defers to protocol's calls
    # for every value outside its domain
    holders: dict[str, set[str]] = {message: set() for message in RULE_MESSAGES}
    clamp_readers = set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for message in RULE_MESSAGES:
                    if message in node.value:
                        holders[message].add(name)
            if "LSR_CLAMP_TOLERANCE" in (getattr(node, "id", None), getattr(node, "attr", None)):
                clamp_readers.add(name)
    assert holders == {message: {"protocol.py"} for message in RULE_MESSAGES}
    assert clamp_readers == {"protocol.py"}
    kernel_calls = {node.attr for node in ast.walk(_modules()["kernel.py"])
                    if isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) == "protocol"}
    assert {"update_rate", "loss_fraction"} <= kernel_calls
