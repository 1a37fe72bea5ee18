"""Content-addressed on-disk artifact cache.

Every pipeline stage's output is stored under a key derived from the
canonical JSON of (stage name, code-version tags, the spec slice the
stage consumes).  The key says *exactly* what produced an artifact, so:

* repeated sweeps — in one process, across worker processes, or across
  sessions — reuse substrates and designs instead of rebuilding them;
* editing any spec field that a stage (or one of its upstream stages)
  consumes changes the key and transparently invalidates the artifact;
* bumping a stage's ``version`` tag (or a solver's ``version``) retires
  every artifact the old code produced.

Writes are atomic (temp file + ``os.replace``), so concurrent sweep
workers racing to publish the same artifact are safe: both compute the
same bytes and the last rename wins.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from pathlib import Path
from typing import Any

from .spec import canonical_json

logger = logging.getLogger(__name__)

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_ARTIFACT_DIR"

#: Stage status tags: how a run obtained each stage's artifact.
COMPUTED = "computed"
CACHED = "cached"


def artifact_key(stage: str, versions: dict[str, str], payload: dict) -> str:
    """The content address for one stage execution.

    Args:
        stage: stage name ("substrate", "design", ...).
        versions: code-version tag of the stage *and every upstream
            stage* (a change anywhere in the producing chain must move
            the key).
        payload: the canonical spec slice the stage chain consumes.
    """
    doc = {"stage": stage, "versions": versions, "payload": payload}
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def default_store_root() -> Path:
    """``$REPRO_ARTIFACT_DIR``, or ``~/.cache/repro/artifacts``."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "artifacts"


class ArtifactStore:
    """Pickle-backed content-addressed store rooted at one directory.

    A per-process memory layer sits above the disk entries: an artifact
    fetched (or published) once is handed back as the same object for
    the rest of the process, so an in-process sweep deserializes each
    substrate/design exactly once no matter how many points share it.
    Content addressing makes this safe — a key's value never changes —
    but artifacts must be treated as immutable by consumers.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self._memory: dict[str, Any] = {}

    # -- raw key/value ----------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk location of a key (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        """(found, artifact); unreadable/corrupt entries count as misses.

        A corrupt entry (torn write, stale class, truncation) is
        quarantined: renamed to ``<name>.corrupt`` so the recompute's
        ``put`` starts from an empty slot and the damaged bytes stay
        available for post-mortem.
        """
        if key in self._memory:
            return True, self._memory[key]
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                artifact = pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except (pickle.UnpicklingError, EOFError, OSError, AttributeError,
                ImportError, IndexError, TypeError, ValueError) as exc:
            self._quarantine(key, path, exc)
            return False, None
        self._memory[key] = artifact
        return True, artifact

    def _quarantine(self, key: str, path: Path, exc: Exception) -> None:
        logger.warning(
            "corrupt artifact for key %s (%s: %s); treating as a cache "
            "miss and quarantining the file to %s",
            key,
            type(exc).__name__,
            exc,
            f"{path.name}.corrupt",
        )
        try:
            os.replace(path, path.with_name(f"{path.name}.corrupt"))
        except OSError:  # pragma: no cover - raced with a concurrent writer
            pass

    def put(self, key: str, artifact: Any) -> Path:
        """Atomically publish an artifact under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(artifact, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self._memory[key] = artifact
        return path


class NullStore(ArtifactStore):
    """A store that never caches (``--no-cache``): every stage computes."""

    def __init__(self) -> None:  # noqa: D107 - no root directory at all
        self.root = None  # type: ignore[assignment]

    def path_for(self, key: str) -> Path:  # pragma: no cover - never hit
        raise RuntimeError("NullStore has no on-disk paths")

    def get(self, key: str) -> tuple[bool, Any]:
        return False, None

    def put(self, key: str, artifact: Any) -> Path | None:
        return None
