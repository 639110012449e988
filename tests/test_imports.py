"""The import contract: `import gds` is lazy, and each CLI command loads
only the modules it runs.

Every check that looks at sys.modules runs in a fresh interpreter, since
the test process has long imported the whole package.
"""

import os
import subprocess
import sys

import pytest

import gds

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gds.__file__)))

# The public names by the module that defines them.
HOMES = {
    "core": [
        "DiscreteMeasure", "FeatureFamily", "GeometricDataSet", "MmSpace", "gds_to_mm",
        "induced_metric", "mm_lip1_generators", "mm_to_gds", "pushforward",
        "pushforward_vector", "sample_lip1",
    ],
    "coupling": [
        "Coupling", "coupling_prohorov", "enumerate_couplings", "feasibility_lp", "glue",
        "max_mass_on_set", "product_coupling", "transportation_vertices",
    ],
    "metrics": [
        "CellSet", "hausdorff", "ky_fan", "ky_fan_coupling", "observable_diameter",
        "od_breakpoints", "partial_diameter", "prohorov", "sup_pseudometric",
    ],
    "observable": [
        "DconcResult", "dconc_at_coupling", "dconc_exact", "dconc_heuristic",
        "dconc_lower_witness", "feature_transfer",
    ],
    "box": [
        "BoxResult", "box_exact", "box_fixed_coupling", "box_heuristic", "box_mm_exact",
        "box_objective", "dis_coupling", "distortion", "lip1_witness",
    ],
    "spaces": [
        "levy_sequence", "levy_table", "n_point_discrete", "product_gds", "quotient_gds",
        "random_gds", "singleton_gds",
    ],
    "order": ["check_domination", "check_isomorphism"],
    "suite": [
        "PropertyOutcome", "SuiteReport", "property_names", "run_property",
        "verify_theorem_suite",
    ],
    "dataio": ["csv_text", "doc_to_gds", "emit_gds", "gds_to_doc", "parse_gds"],
}
# The submodules the package namespace names too.
SUBMODULES = [
    "box", "core", "coupling", "dataio", "errors", "flows", "metrics", "numerics",
    "observable", "order", "spaces", "suite",
]


def env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def python(args, stdin=None):
    """Run a new interpreter with `args` on this checkout."""
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env(),
        timeout=120,
    )


def loaded_after(statements):
    """The gds modules a fresh interpreter holds after running `statements`."""
    code = statements + "\nimport sys; print(*(m for m in sys.modules if m.startswith('gds')))"
    proc = python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def imported_by(args, stdin=None):
    """Every module a fresh interpreter imports running `args`, as
    -X importtime lists them; the run must exit 0."""
    proc = python(["-X", "importtime", *args], stdin)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


class TestNamespace:
    def test_all_is_the_same_74_names(self):
        names = [n for names in HOMES.values() for n in names] + SUBMODULES
        assert len(names) == 74
        assert gds.__all__ == sorted(names)

    def test_each_name_resolves_to_its_home_modules_object(self):
        # In a fresh interpreter, so each name goes through the lazy lookup.
        code = (
            f"import gds, importlib\nhomes = {HOMES!r}\n"
            "home = lambda m: importlib.import_module('gds.' + m)\n"
            "print([n for m, names in homes.items() for n in names"
            " if getattr(gds, n) is not getattr(home(m), n)]"
            f" + [m for m in {SUBMODULES!r} if getattr(gds, m) is not home(m)])"
        )
        proc = python(["-c", code])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_star_import_binds_every_name(self):
        code = (
            "from gds import *\nimport gds\n"
            "print([n for n in gds.__all__ if globals().get(n) is not getattr(gds, n)])"
        )
        proc = python(["-c", code])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_unknown_names_are_attribute_errors(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gds.no_such_name
        assert not hasattr(gds, "cli_main")

    def test_dir_lists_every_public_name(self):
        assert set(gds.__all__) <= set(dir(gds))

    def test_submodule_after_a_bare_import(self):
        code = "import gds; print(gds.suite.run_property('prohorov_routes_agree', 0, 2).asserted)"
        proc = python(["-c", code])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


class TestWhatLoads:
    def test_import_loads_no_solver(self):
        loaded = loaded_after("import gds")
        assert loaded == {"gds"}
        loaded = loaded_after("import gds, gds.cli")
        assert not loaded & {"gds.suite", "gds.box", "gds.observable", "gds.order"}

    def test_gen_loads_no_solver(self):
        loaded = loaded_after(
            "from gds import cli\nassert cli.main(['gen', 'random', '--n', '3', '--k', '2']) == 0"
        )
        assert not loaded & {"gds.metrics", "gds.flows", "gds.coupling", "gds.suite"}

    def test_dconc_loads_neither_box_nor_suite(self):
        loaded = loaded_after(
            "import io, sys\nfrom gds import cli, emit_gds, random_gds\n"
            "sys.stdin = io.StringIO(emit_gds(random_gds(3, 2, seed=3)))\n"
            "assert cli.main(['dconc', '--other', 'random:3,2,9']) == 0"
        )
        assert "gds.observable" in loaded
        assert not loaded & {"gds.suite", "gds.box", "gds.order"}

    def test_python_m_gen_loads_seven_modules(self):
        # -X importtime lists every module the real `python -m gds` imports.
        names = imported_by(["-m", "gds", "gen", "random", "--n", "3", "--k", "2"])
        loaded = {n for n in names if n == "gds" or n.startswith("gds.")}
        assert loaded == {"gds", "gds.cli", "gds.core", "gds.dataio", "gds.errors",
                          "gds.numerics", "gds.spaces"}


class TestNoDataclasses:
    """The records are plain classes, so no run imports dataclasses, nor
    the inspect and ast it would pull in."""

    DOC = gds.emit_gds(gds.random_gds(3, 2, seed=3))

    @pytest.mark.parametrize(
        "args, stdin",
        [
            (["-c", "import gds.cli"], None),
            (["-m", "gds", "gen", "random", "--n", "3", "--k", "2"], None),
            (["-m", "gds", "dconc", "--other", "random:3,2,9", "--exact"], DOC),
            (["-m", "gds", "box", "--mm", "--other", "random:3,2,9"], DOC),
            (["-m", "gds", "od", "-", "--kappa", "1/4"], DOC),
            (["-m", "gds", "verify", "--trials", "1"], None),
        ],
        ids=["import-cli", "gen", "dconc-exact", "box-mm", "od", "verify"],
    )
    def test_run_imports_neither_dataclasses_nor_inspect(self, args, stdin):
        names = imported_by(args, stdin)
        assert "gds.cli" in names
        assert not {"dataclasses", "inspect"} & names
