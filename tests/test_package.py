import ast
import io
import re
import tokenize
from pathlib import Path

import covclust

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCE = Path(covclust.__file__).resolve().parent

# The code lines of `covclust`, counted by `_code_lines`. A change that adds
# lines raises this ceiling on purpose; one that removes lines may lower it.
CODE_LINES = 1263

# Every public name of the package. A name added to or removed from
# `covclust` must be added to or removed from this list on purpose.
PUBLIC_NAMES = [
    "Clustering",
    "DissimConfig",
    "ExperimentConfig",
    "FactorizationError",
    "GroundTruth",
    "HurstDomainError",
    "HurstFunction",
    "IncrementPath",
    "OpCounter",
    "SamplePath",
    "aggregate_rates",
    "build_cov_matrix",
    "build_offline_dataset",
    "build_online_dataset",
    "cholesky_with_jitter",
    "d_factor",
    "d_hat",
    "d_hat_rho_count",
    "d_star_hat",
    "d_tilde_star",
    "default_mn",
    "default_weights",
    "dissimilarity_matrix",
    "fbm_increment_cov_matrix",
    "log_star",
    "misclassification_rate",
    "offline_cluster",
    "online_cluster",
    "run_experiment",
    "sample_fbm_increments",
    "sample_path",
]


def test_public_surface_is_pinned():
    assert covclust.__all__ == PUBLIC_NAMES
    assert all(hasattr(covclust, name) for name in PUBLIC_NAMES)


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _code_lines(path):
    """Lines holding a token other than a comment, a newline or an indent, less
    the lines of module, class and function docstrings."""
    text = path.read_text()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    lines = {token.start[0] for token in tokenize.generate_tokens(io.StringIO(text).readline)
             if token.type not in skip}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) \
                    and isinstance(doc.value.value, str):
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def test_code_lines_stay_under_their_ceiling():
    counts = {path.name: _code_lines(path) for path in sorted(SOURCE.glob("*.py"))}
    assert sum(counts.values()) <= CODE_LINES, ", ".join(f"{k} {n}" for k, n in counts.items())
