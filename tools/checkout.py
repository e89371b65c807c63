"""What tools/bench.py and tools/fingerprint.py need of a git checkout: git,
its revision, a file loaded as a module, a child's environment, a worktree."""

import contextlib
import importlib.util
import os
import subprocess
import tempfile


def git(root: str, *args: str) -> str:
    """``git -C root *args``'s stripped stdout; CalledProcessError when git fails."""
    return subprocess.run(["git", "-C", root, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def revision(root: str) -> tuple[str, bool]:
    """HEAD of the checkout at root, and whether tracked files differ from it."""
    dirty = git(root, "status", "--porcelain", "--untracked-files=no")
    return git(root, "rev-parse", "HEAD"), bool(dirty)


def load(name: str, path: str):
    """The Python file at path, executed as a module called name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_env(root: str) -> dict:
    """This process's environment with root/src first on PYTHONPATH."""
    paths = (os.path.join(root, "src"), os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


@contextlib.contextmanager
def worktree(root: str, rev: str):
    """Yield the path of a detached ``git worktree`` of rev, made from root in a
    temporary directory; it is removed with --force even when the body raises."""
    with tempfile.TemporaryDirectory(prefix="worktree-") as tmp:
        tree = os.path.join(tmp, "tree")
        git(root, "worktree", "add", "--detach", tree, rev)
        try:
            yield tree
        finally:
            git(root, "worktree", "remove", "--force", tree)
