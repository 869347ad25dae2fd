#!/usr/bin/env python3
"""Mutation gate: every edit in tools/mutants.txt must make its ctest fail.

    run_mutants.py [--work DIR]

Copies the working tree (tracked and untracked, ignored files excluded) to
DIR (default: a temporary directory), configures it once, and checks that
the named tests pass unmutated. Then, per mutant: applies the edit, rebuilds
only the library and the named test, runs that test through ctest, and
restores the file. A mutant survives when its test still passes. Builds use
one job per CPU.

Exit 0 when every mutant is killed; 1 when one survives, an edit does not
apply, a mutant does not compile, or a named test fails unmutated.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEPARATOR = " | "
TEST_TIMEOUT_S = 900
VERDICT = {"fail": "killed", "pass": "SURVIVED", "build-error": "DOES NOT BUILD"}


def fail(message):
    print(f"run_mutants: {message}", file=sys.stderr)
    sys.exit(1)


def parse_mutants(path):
    mutants = []
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split(SEPARATOR, 3)
            if len(fields) != 4 or not all(f.strip() for f in fields[:3]):
                fail(f"{path}:{number}: expected '<ctest> | <file> | <text> | <replacement>'")
            test, source, text, replacement = (f.strip() for f in fields)
            mutants.append({"line": number, "test": test, "file": source,
                            "text": text, "replacement": replacement})
    if not mutants:
        fail(f"{path}: no mutants")
    return mutants


def copy_tree(destination):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True).stdout.decode()
    for relative in filter(None, listed.split("\0")):
        source = os.path.join(REPO, relative)
        if not os.path.isfile(source):
            continue  # deleted in the working tree
        target = os.path.join(destination, relative)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)


def run(command, cwd, timeout=None):
    try:
        return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="scratch directory for the copy and its build")
    args = parser.parse_args()

    mutants = parse_mutants(os.path.join(REPO, "tools", "mutants.txt"))
    jobs = str(os.cpu_count() or 1)
    work = args.work or tempfile.mkdtemp(prefix="pamr-mutants-")
    tree = os.path.join(work, "tree")
    build = os.path.join(work, "build")
    if os.path.exists(tree):
        shutil.rmtree(tree)
    copy_tree(tree)

    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if run(["cmake", "-S", tree, "-B", build, "-DCMAKE_BUILD_TYPE=Release", *generator],
           cwd=work) != 0:
        fail("configure failed")

    def build_and_test(test):
        if run(["cmake", "--build", build, "-j", jobs, "--target", test],
               cwd=work) != 0:
            return "build-error"
        status = run(["ctest", "-R", f"^{test}$", "--timeout", str(TEST_TIMEOUT_S)],
                     cwd=build, timeout=TEST_TIMEOUT_S + 60)
        return "pass" if status == 0 else "fail"

    problems = 0
    for test in sorted({m["test"] for m in mutants}):
        outcome = build_and_test(test)
        if outcome != "pass":
            print(f"unmutated {test}: {outcome}")
            problems += 1
    if problems:
        fail("the named tests must pass before any mutant is applied")

    for mutant in mutants:
        label = f"line {mutant['line']} ({mutant['file']} -> {mutant['test']})"
        path = os.path.join(tree, mutant["file"])
        with open(path, encoding="utf-8") as handle:
            original = handle.read()
        if original.count(mutant["text"]) != 1:
            print(f"NOT APPLIED {label}: text occurs {original.count(mutant['text'])} times")
            problems += 1
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original.replace(mutant["text"], mutant["replacement"]))
        try:
            outcome = build_and_test(mutant["test"])
        finally:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(original)
        print(f"{VERDICT[outcome]:>14}  {label}", flush=True)
        if outcome != "fail":
            problems += 1

    if problems:
        fail(f"{problems} of {len(mutants)} mutants not killed")
    print(f"run_mutants: all {len(mutants)} mutants killed")


if __name__ == "__main__":
    main()
