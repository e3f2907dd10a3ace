"""Documentation consistency: the docs reference real code and files."""

import os
import re


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(REPO, name)) as fh:
        return fh.read()


class TestReadme:
    def test_example_files_exist(self):
        readme = read("README.md")
        for match in re.findall(r"`([a-z_]+\.py)`", readme):
            assert os.path.exists(os.path.join(REPO, "examples", match)), \
                match

    def test_mentions_all_deliverable_docs(self):
        readme = read("README.md")
        for doc in ("DESIGN.md", "EXPERIMENTS.md"):
            assert doc in readme

    def test_install_commands_valid(self):
        readme = read("README.md")
        assert "pip install -e ." in readme
        assert "pytest benchmarks/ --benchmark-only" in readme


class TestDesign:
    def test_no_title_mismatch_flag(self):
        """DESIGN.md confirms the paper text matched (per the task spec,
        a mismatch would have to be flagged at the top)."""
        design = read("DESIGN.md")
        assert "matches the claimed paper" in design

    def test_benchmark_paths_exist(self):
        design = read("DESIGN.md")
        for match in set(re.findall(r"`(benchmarks/[a-z0-9_]+\.py)`",
                                    design)):
            assert os.path.exists(os.path.join(REPO, match)), match

    def test_module_map_matches_source_tree(self):
        design = read("DESIGN.md")
        for pkg in ("nn", "zoo", "data", "metrics", "device", "trim",
                    "train", "estimators", "netcut", "hand", "extensions"):
            assert f"{pkg}/" in design or f"  {pkg}." in design, pkg
            assert os.path.isdir(os.path.join(REPO, "src", "repro", pkg)), pkg
        # every file the map lists exists: package headers sit at two
        # spaces, their files at four (several may share one line), and
        # a two-space entry may name a file directly (`pkg/file.py`)
        block = design.split("(module map)", 1)[1].split("```")[1]
        src = os.path.join(REPO, "src", "repro")
        listed, pkg = [], None
        for line in block.splitlines():
            words = line.split()
            indent = len(line) - len(line.lstrip())
            if indent == 2 and words[0].endswith("/"):
                pkg = words[0][:-1]
                listed.append(pkg)
            elif indent == 2 and words[0].endswith(".py"):
                listed.append(words[0])
            elif indent == 4 and pkg is not None:
                for word in words:
                    if not word.endswith(".py"):
                        break
                    listed.append(f"{pkg}/{word}")
        assert len(listed) > 60
        for path in listed:
            assert os.path.exists(os.path.join(src, path)), path
        # and in every package the map lists file by file, it lists every
        # module
        for pkg in sorted({path.split("/")[0] for path in listed
                           if "/" in path}):
            unlisted = [
                f"{pkg}/{name}"
                for name in sorted(os.listdir(os.path.join(src, pkg)))
                if name.endswith(".py") and name != "__init__.py"
                and f"{pkg}/{name}" not in listed]
            assert not unlisted, unlisted


class TestExperimentsDoc:
    def test_references_result_files_that_benches_emit(self):
        """Every results file EXPERIMENTS.md cites is produced by some
        benchmark (checked against the figures manifest plus ablations)."""
        from repro.figures import EXPERIMENTS

        produced = {f for e in EXPERIMENTS for f in e.results_files}
        produced |= {"ablation_two_phase.txt", "ablation_seed_stability.txt",
                     "ext_device_portability.txt", "ext_safety_margin.txt",
                     "fig07_pareto_frontier.txt"}
        doc = read("EXPERIMENTS.md")
        for match in set(re.findall(r"`([a-z0-9_]+\.txt)`", doc)):
            assert match in produced, match

    def test_headline_table_complete(self):
        doc = read("EXPERIMENTS.md")
        for quantity in ("148", "95%", "27×", "10.43%", "4.28%", "23.81%"):
            assert quantity in doc, quantity


class TestSourcePaths:
    def test_repo_paths_named_in_source_exist(self):
        """Every benchmarks/, tests/, examples/, scripts/ or docs/ path a
        module, docstring or message in src/repro names is on disk."""
        src = os.path.join(REPO, "src", "repro")
        pattern = re.compile(
            r"\b(?:benchmarks|tests|examples|scripts|docs)/[\w./-]*\w")
        named = set()
        for root, _, files in os.walk(src):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name)) as fh:
                        named.update(pattern.findall(fh.read()))
        assert len(named) > 15
        missing = [path for path in sorted(named)
                   if not os.path.exists(os.path.join(REPO, path))]
        assert not missing, missing


class TestExamplesSmoke:
    def test_every_example_is_smoked(self):
        """scripts/examples_smoke.sh lists every examples/*.py — a demo
        that isn't smoked in CI is a demo that silently rots."""
        script = read(os.path.join("scripts", "examples_smoke.sh"))
        for name in sorted(os.listdir(os.path.join(REPO, "examples"))):
            if name.endswith(".py"):
                assert f"examples/{name}" in script, name

    def test_smoked_examples_exist(self):
        script = read(os.path.join("scripts", "examples_smoke.sh"))
        for match in set(re.findall(r"examples/[a-z_]+\.py", script)):
            assert os.path.exists(os.path.join(REPO, match)), match

    def test_ci_runs_the_smoke(self):
        ci = read(os.path.join(".github", "workflows", "ci.yml"))
        assert "scripts/examples_smoke.sh" in ci


class TestApiDoc:
    def test_documented_imports_work(self):
        """Every `from repro.x import y` line in docs/API.md executes."""
        doc = read(os.path.join("docs", "API.md"))
        imports = re.findall(r"^from (repro[\w.]*) import \(?([\w, \n]+?)\)?$",
                             doc, flags=re.MULTILINE)
        assert imports
        import importlib

        for module, names in imports:
            mod = importlib.import_module(module)
            for name in re.split(r"[,\s]+", names.strip()):
                if name:
                    assert hasattr(mod, name), f"{module}.{name}"


class TestDocAttributes:
    def test_named_class_attributes_exist(self):
        """Every backticked `Class.attr` in docs/API.md, README.md and
        DESIGN.md resolves, where Class is a class a repro package
        exports."""
        import importlib
        import inspect
        import pkgutil

        import repro

        classes = {}
        packages = ["repro"] + [f"repro.{info.name}" for info in
                                pkgutil.iter_modules(repro.__path__)
                                if info.ispkg]
        for package in packages:
            mod = importlib.import_module(package)
            for name, cls in inspect.getmembers(mod, inspect.isclass):
                if cls.__module__.startswith("repro"):
                    classes.setdefault(name, []).append(cls)
        checked, missing = 0, []
        for doc in (os.path.join("docs", "API.md"), "README.md",
                    "DESIGN.md"):
            for cls, attr in re.findall(r"`([A-Z]\w*)\.(\w+)", read(doc)):
                if cls in classes:
                    checked += 1
                    if not any(hasattr(c, attr) for c in classes[cls]):
                        missing.append(f"{doc}: {cls}.{attr}")
        assert checked > 20
        assert not missing, missing
