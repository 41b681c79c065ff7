"""Checks on the source itself rather than on its numbers."""
import ast
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fedcert"
ORACLE = SRC / "oracle.py"

# the solution code of the solvers the oracles cross-check
SOLVER_NAMES = {"GreedyFill", "upper_hulls", "hull_pieces", "_block_hull",
                "_rise_over_chord", "_waterfill", "ball", "_kl_bernoulli",
                "_mean_duals", "_golden", "_ScoreLineInner",
                "_staircases_by_block", "_line_tables", "_padded", "_LEVELS",
                "_rising_score", "_hull_fill", "_grid_staircases", "_tangent_vertices"}

# the bound functions and target shifts a certificate kind is wired to; the
# command line reaches them only through oracle.issue_certificate and
# oracle.target_world
KIND_WIRING = {"mean_bound", "cdf_bound", "fdiv_mean_bound", "fdiv_cdf_bound",
               "wass_mean_bound", "tilt_for_divergence"}


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


def test_oracles_share_no_solution_code_with_the_solvers():
    imported, named = _names(ORACLE)
    assert not [m for m in imported if m.split(".")[-1] == "concave"]
    assert not named & SOLVER_NAMES


def test_the_oracle_takes_from_wass_only_its_bound_and_default_grid():
    # the allocation oracle evaluates the tangent envelopes with its own code
    tree = ast.parse(ORACLE.read_text())
    taken = {a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "wass"
             for a in node.names}
    assert taken == {"wass_mean_bound", "DEFAULT_GRID_SIZE"}
    _, named = _names(ORACLE)
    assert "wass" not in named


def test_the_cli_wires_no_certificate_kind_itself():
    _, named = _names(SRC / "cli.py")
    assert not named & KIND_WIRING
    assert not [n for n in named if n.startswith("shift_meta_")]


def test_cli_and_oracle_draw_worlds_only_through_draw_world():
    for module in ("cli.py", "oracle.py"):
        _, named = _names(SRC / module)
        assert not named & {"sample_clients", "generate_datasets"}, module


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
        "for argv, out in ((['certify', '--config', sys.argv[2]], 'c'),\n"
        "                  (['verify', '--config', sys.argv[2]], 'v'), (['emit-plots'], 'c')):\n"
        "    assert fedcert.cli.main(argv + ['--out', sys.argv[3] + out]) == 0, argv\n"
        "    report(argv[0])\n"
    )
    res = subprocess.run([sys.executable, "-c", probe, str(SRC.parent), str(config),
                          str(tmp_path / "out-")], capture_output=True, text=True, check=True)
    reports = [line for line in res.stdout.splitlines() if line.startswith("LOADED")]
    assert reports == [f"LOADED {step} []"
                       for step in ("import", "certify", "verify", "emit-plots")]
