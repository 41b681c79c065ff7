"""Checks on the source itself rather than on its numbers."""
import ast
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fedcert"
ORACLE = SRC / "oracle.py"

# the solution code of the solvers the oracles cross-check
SOLVER_NAMES = {"RowFill", "upper_hulls", "hull_pieces", "_block_hull",
                "_rise_over_chord", "_waterfill", "ball", "_kl_bernoulli",
                "_mean_duals", "_golden", "_ScoreLineInner",
                "_staircases_by_block", "_line_tables", "_padded", "_LEVELS",
                "_rising_score", "_hull_fill", "_grid_staircases", "_tangent_vertices",
                "_FlipInner", "_by_key", "_profiles", "greedy",
                "_GridInner", "sq_distances", "of_sq_distance", "_split"}

# the bound functions and target shifts a certificate kind is wired to; the
# command line reaches them only through oracle.issue_certificate and
# oracle.target_world
KIND_WIRING = {"mean_bound", "cdf_bound", "fdiv_mean_bound", "fdiv_cdf_bound",
               "mean_rows", "cdf_rows", "fdiv_mean_rows", "fdiv_cdf_rows",
               "wass_mean_bound", "wass_mean_rows", "wass_mean_certificate",
               "tilt_for_divergence"}


def _names(path):
    tree = ast.parse(path.read_text())
    imported, named = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return imported, named


def _taken_from(path, module):
    """The names ``path`` imports from the sibling ``module``."""
    return {a.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module
            for a in node.names}


def test_oracles_share_no_solution_code_with_the_solvers():
    imported, named = _names(ORACLE)
    assert not [m for m in imported if m.split(".")[-1] == "concave"]
    assert not named & SOLVER_NAMES


def test_the_oracle_takes_from_wass_only_its_bound_and_default_grid():
    # the allocation oracle evaluates the tangent envelopes with its own
    # code; certify takes the one-row certificate of a table, the coverage
    # trials the rows kernel, and both the grid they read
    assert _taken_from(ORACLE, "wass") == {"wass_mean_certificate", "wass_mean_rows",
                                           "certificate_grid", "DEFAULT_GRID_SIZE"}
    _, named = _names(ORACLE)
    assert "wass" not in named


def test_the_oracle_takes_from_query_only_the_table_its_trials_answer():
    # the coverage trials answer their clients through the function that
    # answers certify's, and take the cost name and the budget error
    assert _taken_from(ORACLE, "query") == {"HALF_SQ", "BudgetExceededError", "answer_table"}


def test_the_query_routes_take_from_concave_only_the_hull_and_the_fill():
    # the score line sizes its staircase blocks with a constant of its own,
    # not with the hull's private block
    assert _taken_from(SRC / "query.py", "concave") == {"RowFill", "hull_pieces"}
    _, named = _names(SRC / "query.py")
    assert "concave" not in named


def test_the_cli_wires_no_certificate_kind_itself():
    # a wass-mean request's radius grid comes from oracle.request_grid too
    imported, named = _names(SRC / "cli.py")
    assert not [m for m in imported if m.split(".")[-1] == "wass"]
    assert not named & KIND_WIRING
    assert not [n for n in named if n.startswith("shift_meta_")]


def test_the_cli_imports_no_private_name_of_another_module():
    # a rule the command line checks goes through a module's public entry
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [(node.module, a.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or (node.module or "").split(".")[0] == "fedcert")
               for a in node.names if a.name.startswith("_")]
    assert private == []


def test_cli_and_oracle_draw_worlds_only_through_draw_world():
    for module in ("cli.py", "oracle.py"):
        _, named = _names(SRC / module)
        assert not named & {"sample_clients", "generate_datasets"}, module


def _call_name(node):
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def test_cli_and_oracle_take_drawn_clients_only_from_drawn_world_datasets():
    # a drawn world's clients are row views of its columns, which the query
    # tables read in place; a dataset built here would be stacked again.  The
    # oracle's trials read the sampling pass's blocks, and build no client
    _, named = _names(ORACLE)
    assert not named & {"Client", "draw_world", "query_profiles",
                        "LocalDataset", "row_view", "generate_dataset"}
    module = "cli.py"
    tree = ast.parse((SRC / module).read_text())
    _, named = _names(SRC / module)
    assert not named & {"LocalDataset", "row_view", "generate_dataset"}, module
    clients = [node for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _call_name(node) == "Client"]
    checked = 0
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        # the calls each local name is assigned from
        sources = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                for name in (n for t in node.targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)):
                    sources.setdefault(name.id, set()).add(_call_name(node.value))
        for comp in ast.walk(func):
            if not (isinstance(comp, ast.ListComp) and isinstance(comp.elt, ast.Call)
                    and _call_name(comp.elt) == "Client"):
                continue
            (gen,) = comp.generators
            it = gen.iter
            origin = {_call_name(it)} if isinstance(it, ast.Call) else sources.get(it.id)
            # a drawn world's datasets, or a saved world's read back
            assert origin and origin <= {"datasets", "load_world"}, (module, func.name)
            assert comp.elt.args[1].id == gen.target.id, (module, func.name)
            checked += 1
    assert clients and checked == len(clients), module


def _top_level_calls(path, names):
    """(top-level function or class, call name) of each call in ``path``
    to one of ``names``."""
    tree = ast.parse(path.read_text())
    return {(getattr(top, "name", None), _call_name(node))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and _call_name(node) in names}


def _function(path, name):
    (func,) = [node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return func


def test_the_query_table_reads_no_budget_and_the_cli_caps_no_client():
    # a library client's cap is read where answers are charged (_charge),
    # not by the table that answers them
    named = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(_function(SRC / "query.py", "_profiles"))}
    assert not named & {"max_queries", "_used"}
    clients = [node for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
               if isinstance(node, ast.Call) and _call_name(node) == "Client"]
    assert clients and not [k for c in clients for k in c.keywords if k.arg == "max_queries"]


def test_one_oracle_rule_checks_the_run_budget_for_both_commands():
    calls = (_top_level_calls(SRC / "cli.py", {"check_query_budget"})
             | _top_level_calls(ORACLE, {"check_query_budget"}))
    assert {top for top, _ in calls} >= {"cmd_certify", "coverage_experiments"}
    source = ORACLE.read_text()
    rule = ast.get_source_segment(source, _function(ORACLE, "check_query_budget"))
    assert source.count("1 + sum(") == rule.count("1 + sum(") == 1


def test_only_certificates_builds_certificates_and_writes_json():
    # every one-row certificate is made from its kernel's rows by
    # Rows.bound or Rows.curve, and every JSON artefact by write_json;
    # emit-plots reads a curve back from its CSV
    names = {"CertifiedBound", "CdfCurve", "dump"}
    made = {(path.name, *call) for path in sorted(SRC.glob("*.py"))
            for call in _top_level_calls(path, names)}
    assert {m for m in made if m[0] != "certificates.py"} == \
        {("cli.py", "cmd_emit_plots", "CdfCurve")}
    assert {m[2] for m in made if m[0] == "certificates.py"} == names


README = SRC.parents[1] / "README.md"


def test_cli_import_and_the_truth_quadrature_leave_slow_scipy_out(tmp_path):
    # no command loads any scipy module: scipy.special alone took 0.24-0.30 s
    # (275 modules) of a 0.55-0.66 s `import fedcert.cli`.  Only
    # wass_ball_lp_oracle imports scipy, inside the call.
    config = tmp_path / "config.json"
    config.write_text(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "def report(): print('SCIPY', sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "import fedcert; report()\n"
        "import fedcert.cli; report()\n"
        "for command in ('certify', 'verify'):\n"
        "    rc = fedcert.cli.main([command, '--config', sys.argv[2], '--out', sys.argv[3] + command])\n"
        "    assert rc == 0, (command, rc)\n"
        "report()\n"
        # the tightness probe's quadrature on a world whose window holds ut = 0
        "import numpy as np; from fedcert import Hypothesis, MetaConfig, mean_true_risk\n"
        "cfg = MetaConfig(dim=2, n_classes=2, class_means=[[-1, 0], [1, 0]], "
        "shift_mode='both', sigma_affine=0.5)\n"
        "mean_true_risk(cfg, Hypothesis(kind='logistic', weights=np.ones(2), bias=0.0))\n"
        "report()\n"
    )
    res = subprocess.run([sys.executable, "-c", probe, str(SRC.parent), str(config),
                          str(tmp_path / "out-")], capture_output=True, text=True, check=True)
    reports = [line for line in res.stdout.splitlines() if line.startswith("SCIPY")]
    assert reports == ["SCIPY []"] * 4


def test_no_command_loads_a_third_party_module_but_numpy(tmp_path):
    # jsonschema took about 75 ms of a 0.29 s `import fedcert.cli` and
    # brought ten more third-party packages; the commands check configs and
    # summaries with cli.schema_error.  Modules that the interpreter's site
    # hooks (.pth files) load before the probe starts are not the commands',
    # and numpy.random's compiled modules register the Cython runtime under
    # `cython_runtime` and `_cython_<version>`.
    config = tmp_path / "config.json"
    config.write_text(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "start = {m.split('.')[0] for m in sys.modules}\n"
        "def report(step):\n"
        "    loaded = {m.split('.')[0] for m in sys.modules} - start - {'fedcert', 'numpy'}\n"
        "    loaded = {m for m in loaded if not m.startswith(('cython_runtime', '_cython_'))}\n"
        "    print('LOADED', step, sorted(loaded - set(sys.stdlib_module_names)))\n"
        "import fedcert.cli; report('import')\n"
        "for argv, out in ((['simulate', '--config', sys.argv[2]], 's'),\n"
        "                  (['certify', '--config', sys.argv[2]], 'c'),\n"
        "                  (['verify', '--config', sys.argv[2]], 'v'), (['emit-plots'], 'c')):\n"
        "    assert fedcert.cli.main(argv + ['--out', sys.argv[3] + out]) == 0, argv\n"
        "    report(argv[0])\n"
    )
    res = subprocess.run([sys.executable, "-c", probe, str(SRC.parent), str(config),
                          str(tmp_path / "out-")], capture_output=True, text=True, check=True)
    reports = [line for line in res.stdout.splitlines() if line.startswith("LOADED")]
    assert reports == [f"LOADED {step} []"
                       for step in ("import", "simulate", "certify", "verify", "emit-plots")]
