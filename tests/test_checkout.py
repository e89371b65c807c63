"""tools/checkout.py on a throwaway git repository: the revision and its dirty
flag, a worktree of an older commit, its removal, and the child environment."""

import os
import pathlib

import pytest

from support import checkout


def _commit(root, text):
    (pathlib.Path(root) / "tracked.txt").write_text(text)
    checkout.git(root, "add", "tracked.txt")
    checkout.git(root, "-c", "user.name=t", "-c", "user.email=t@example.com",
                 "-c", "commit.gpgsign=false", "commit", "-q", "-m", text)
    return checkout.git(root, "rev-parse", "HEAD")


@pytest.fixture
def repo(tmp_path):
    """(root, [first commit, second commit]) of a new repository."""
    root = str(tmp_path / "repo")
    os.makedirs(root)
    checkout.git(root, "init", "-q")
    return root, [_commit(root, "one\n"), _commit(root, "two\n")]


def _worktrees(root):
    return len(checkout.git(root, "worktree", "list").splitlines())


def test_revision_is_dirty_for_a_tracked_change_only(repo):
    root, commits = repo
    assert checkout.revision(root) == (commits[1], False)
    (pathlib.Path(root) / "untracked.txt").write_text("new\n")
    assert checkout.revision(root) == (commits[1], False)
    (pathlib.Path(root) / "tracked.txt").write_text("changed\n")
    assert checkout.revision(root) == (commits[1], True)


def test_worktree_checks_out_the_revision_and_is_removed(repo):
    root, commits = repo
    with checkout.worktree(root, "HEAD~1") as tree:
        assert (pathlib.Path(tree) / "tracked.txt").read_text() == "one\n"
        assert checkout.revision(tree) == (commits[0], False)
        assert _worktrees(root) == 2
    assert _worktrees(root) == 1 and not os.path.exists(tree)


def test_worktree_is_removed_when_the_body_raises(repo):
    root, _ = repo
    with pytest.raises(RuntimeError, match="body"):
        with checkout.worktree(root, "HEAD") as tree:
            (pathlib.Path(tree) / "tracked.txt").write_text("edited\n")
            raise RuntimeError("body")
    assert _worktrees(root) == 1 and not os.path.exists(tree)


def test_git_raises_when_git_fails(tmp_path):
    with pytest.raises(checkout.subprocess.CalledProcessError):
        checkout.git(str(tmp_path), "rev-parse", "HEAD")


def test_child_env_puts_the_checkout_src_first(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    assert checkout.child_env("/co")["PYTHONPATH"] == os.pathsep.join(
        [os.path.join("/co", "src"), "/elsewhere"])
    monkeypatch.delenv("PYTHONPATH")
    assert checkout.child_env("/co")["PYTHONPATH"] == os.path.join("/co", "src")
