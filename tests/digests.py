"""SHA-256 of every data file the commands write, as one JSON document.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python tests/digests.py > digests.json

In one process it runs ``simulate`` (both modes), ``compose --case
i|ii|converse``, ``reconstruct`` and ``figure --id fig2|fig3``, first on the
bundled scenario and then on its Crank-Nicolson shape (``solver:
crank_nicolson``, 201 labels on [-1.6, 1.6]), and last ``verify``.  Each run
is recorded with its exit code, the SHA-256 of every file it wrote but
``timings.json`` (which holds wall times), and, when it exits non-zero, its
error message.  Two checkouts whose outputs agree byte for byte print the
same document, so that a refactor which keeps every output is one ``diff``
away.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from bihj.cli import main
from bihj.scenario import bundled_scenario

COMMANDS = (
    ("simulate",),
    ("simulate", "--mode", "autonomous"),
    ("compose", "--case", "i"),
    ("compose", "--case", "ii"),
    ("compose", "--case", "converse"),
    ("reconstruct",),
    ("figure", "--id", "fig2"),
    ("figure", "--id", "fig3"),
)


def crank_nicolson_shape():
    """The bundled scenario on the grid reference, with labels on [-1.6, 1.6]."""
    doc = bundled_scenario()
    doc["solver"] = "crank_nicolson"
    doc["labels"]["span"] = {"kind": "explicit", "lo": -1.6, "hi": 1.6}
    return doc


def run(argv, out):
    """Exit code, file digests and error message of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    record = {"exit": code, "files": {}}
    if out.exists():
        record["files"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(out.iterdir())
                           if p.is_file() and p.name != "timings.json"}
    if code:
        record["error"] = err.getvalue().strip()
    return record


def digests(workdir):
    workdir = Path(workdir)
    config = workdir / "crank_nicolson.json"
    config.write_text(json.dumps(crank_nicolson_shape()))
    out = {}
    for shape, extra in (("bundled", ()), ("crank_nicolson", ("--config", str(config)))):
        for argv in COMMANDS:
            name = f"{shape}: {' '.join(argv)}"
            out[name] = run([*argv, *extra], workdir / f"run{len(out)}")
    out["verify"] = run(["verify"], workdir / "verify")
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="bihj-digests-") as tmp:
        json.dump(digests(tmp), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
