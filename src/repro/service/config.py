"""Typed, frozen serving configuration (the ``ServeEngine`` surface).

``ServeEngine.__init__`` accreted 22 keyword arguments across PRs 3-7.
This module splits that flat surface into three cohesive frozen
dataclasses composed by :class:`ServeConfig`:

* :class:`DurabilityConfig` — WAL/checkpoint placement and cadence
* :class:`AdmissionConfig` — bounded-queue backpressure policy
* :class:`RetryConfig` — transient-fault retry and probe backoff

Every field validates in ``__post_init__`` and raises
:class:`~repro.errors.ConfigurationError` on a bad value, so an invalid
configuration is rejected at *construction* (before any thread starts or
any file is opened).  The dataclasses are the single source of truth for
three different front doors:

* ``ServeEngine(source, config=...)`` — the typed constructor; the old
  flat keywords keep working through :meth:`ServeConfig.from_kwargs`
  behind a ``DeprecationWarning`` shim in the engine.
* JSON — :meth:`ServeConfig.to_dict` / :meth:`ServeConfig.from_dict`
  round-trip losslessly, which is how ``--config FILE`` loads and how a
  cluster primary ships one config object to its replica processes.
* the CLI — :func:`add_config_arguments` generates one ``repro serve`` /
  ``repro cluster serve`` flag per field from the field metadata, so the
  flag set can never drift from the dataclasses.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.core.batch import DEFAULT_REBUILD_THRESHOLD
from repro.core.maintenance import STRATEGIES
from repro.errors import ConfigurationError
from repro.persist.manager import (
    DEFAULT_CHECKPOINT_WAL_BYTES,
    DEFAULT_FULL_CHECKPOINT_EVERY,
)

__all__ = [
    "AdmissionConfig",
    "DEFAULT_SUBMIT_TIMEOUT",
    "DurabilityConfig",
    "RetryConfig",
    "ServeConfig",
    "add_config_arguments",
    "config_from_args",
    "load_config_file",
]

#: Default admission wait bound for the ``"block"`` backpressure policy.
DEFAULT_SUBMIT_TIMEOUT = 30.0


def _cfg(
    default: Any,
    help_: str,
    *,
    flag: str | None = None,
    choices: tuple[str, ...] | None = None,
    arg: type | None = None,
):
    """A dataclass field carrying the CLI metadata for one option."""
    meta: dict[str, Any] = {"help": help_}
    if flag is not None:
        meta["flag"] = flag
    if choices is not None:
        meta["choices"] = choices
    if arg is not None:
        meta["arg"] = arg
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class DurabilityConfig:
    """Where — and how hard — the engine makes batches durable.

    Without a ``data_dir`` the engine serves purely in memory.  With
    one, every batch is durably logged before its epoch publishes
    (log-before-publish), checkpoints are cut whenever the WAL suffix
    outgrows ``checkpoint_wal_bytes``, and the same directory is the
    replication log a :mod:`repro.cluster` replica tails.
    """

    data_dir: str | None = _cfg(
        None,
        "durability directory (WAL + checkpoints); omit to serve "
        "in-memory",
        arg=str,
    )
    wal_fsync: str = _cfg(
        "always",
        "WAL flush policy: 'always' reaches the platter before an epoch "
        "publishes, 'off' survives process death but not power loss",
        choices=("always", "off"),
    )
    checkpoint_wal_bytes: int = _cfg(
        DEFAULT_CHECKPOINT_WAL_BYTES,
        "cut a checkpoint once the WAL suffix exceeds this many bytes",
        flag="--checkpoint-bytes",
        arg=int,
    )
    full_checkpoint_every: int = _cfg(
        DEFAULT_FULL_CHECKPOINT_EVERY,
        "full (vs delta) checkpoint cadence along a chain",
        arg=int,
    )
    checkpoint_on_stop: bool = _cfg(
        True,
        "write a final checkpoint on clean stop so the next open "
        "skips WAL replay",
    )

    def __post_init__(self) -> None:
        if self.data_dir is not None and not isinstance(self.data_dir, str):
            # Accept Path-likes, store a string: to_dict() must be
            # JSON-serializable as-is.
            object.__setattr__(self, "data_dir", str(self.data_dir))
        if self.wal_fsync not in ("always", "off"):
            raise ConfigurationError(
                f"unknown wal_fsync policy {self.wal_fsync!r} "
                "(expected 'always' or 'off')"
            )
        if self.checkpoint_wal_bytes < 1:
            raise ConfigurationError(
                "checkpoint_wal_bytes must be at least 1"
            )
        if self.full_checkpoint_every < 1:
            raise ConfigurationError(
                "full_checkpoint_every must be at least 1"
            )


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounded admission: what ``submit()`` does when the queue is full.

    ``submit_timeout`` bounds only the ``"block"`` policy's wait, and a
    wait can only happen when the queue is *bounded*: with the default
    ``max_queue_depth=None`` the queue is unbounded, ``submit()`` never
    blocks, and a timeout can never apply.  A non-default
    ``submit_timeout`` combined with an unbounded queue is therefore
    rejected here instead of being silently ignored (which is what the
    flat keyword surface historically did).
    """

    max_queue_depth: int | None = _cfg(
        None,
        "bounded admission cap on ops submitted but not yet consumed "
        "(default: unbounded)",
        arg=int,
    )
    backpressure: str = _cfg(
        "block",
        "full-queue policy: 'block' (wait up to --submit-timeout), "
        "'reject' (raise immediately), or 'shed' (drop and count)",
        choices=("block", "reject", "shed"),
    )
    submit_timeout: float | None = _cfg(
        DEFAULT_SUBMIT_TIMEOUT,
        "admission wait bound in seconds for the 'block' policy "
        "(requires --max-queue-depth)",
        arg=float,
    )

    def __post_init__(self) -> None:
        if self.backpressure not in ("block", "reject", "shed"):
            raise ConfigurationError(
                f"unknown backpressure policy {self.backpressure!r} "
                "(expected 'block', 'reject', or 'shed')"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be at least 1")
        if self.submit_timeout is not None and self.submit_timeout <= 0:
            raise ConfigurationError(
                "submit_timeout must be positive (or None to wait "
                "forever)"
            )
        if (
            self.max_queue_depth is None
            and self.submit_timeout is not None
            and self.submit_timeout != DEFAULT_SUBMIT_TIMEOUT
        ):
            raise ConfigurationError(
                "submit_timeout applies only to bounded admission: an "
                "unbounded queue (max_queue_depth=None) never blocks "
                "submit(), so the timeout would be silently ignored — "
                "set max_queue_depth to bound the queue"
            )


@dataclass(frozen=True)
class RetryConfig:
    """Transient-fault retry bounds and health-probe backoff."""

    io_retries: int = _cfg(
        4,
        "bounded retries for transient WAL-append faults before "
        "escalating",
        arg=int,
    )
    io_backoff_s: float = _cfg(
        0.01,
        "initial retry backoff in seconds",
        arg=float,
    )
    probe_backoff_s: float = _cfg(
        0.05,
        "initial health-probe backoff in seconds",
        arg=float,
    )
    probe_max_backoff_s: float = _cfg(
        2.0,
        "exponential cap both backoffs climb to",
        arg=float,
    )

    def __post_init__(self) -> None:
        if self.io_retries < 0:
            raise ConfigurationError("io_retries must be non-negative")
        for name in ("io_backoff_s", "probe_backoff_s",
                     "probe_max_backoff_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


#: composed sections, in (attribute name, dataclass) order
_SECTIONS: tuple[tuple[str, type], ...] = ()  # filled after ServeConfig


@dataclass(frozen=True)
class ServeConfig:
    """The full serving configuration, one immutable value object.

    Runtime-only collaborators (the ``monitor`` and the ``on_publish``
    callback) are *not* configuration: they stay explicit
    ``ServeEngine`` parameters, which is what keeps this object
    JSON-serializable end to end.
    """

    strategy: str | None = _cfg(
        None,
        "maintenance strategy for a fresh build (a recovered data_dir "
        "pins its own recorded strategy)",
        choices=STRATEGIES,
        arg=str,
    )
    batch_size: int = _cfg(
        64,
        "maximum ops drained into one maintenance batch",
        arg=int,
    )
    rebuild_threshold: float = _cfg(
        DEFAULT_REBUILD_THRESHOLD,
        "affected-hub fraction above which a batch takes the "
        "full-rebuild fallback",
        arg=float,
    )
    on_invalid: str = _cfg(
        "skip",
        "infeasible-op policy inside a batch: 'skip' drops and counts, "
        "'raise' poisons the batch",
        choices=("skip", "raise"),
    )
    on_poison: str = _cfg(
        "quarantine",
        "deterministic batch-failure policy: 'quarantine' dead-letters "
        "the batch and resumes, 'fail' sticks",
        choices=("quarantine", "fail"),
    )
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{STRATEGIES}"
            )
        if self.on_invalid not in ("skip", "raise"):
            raise ConfigurationError(
                f"unknown on_invalid policy {self.on_invalid!r} "
                "(expected 'skip' or 'raise')"
            )
        if self.on_poison not in ("quarantine", "fail"):
            raise ConfigurationError(
                f"unknown on_poison policy {self.on_poison!r} "
                "(expected 'quarantine' or 'fail')"
            )
        for name, cls in _SECTIONS:
            if not isinstance(getattr(self, name), cls):
                raise ConfigurationError(
                    f"{name} must be a {cls.__name__}, got "
                    f"{type(getattr(self, name)).__name__}"
                )

    # ------------------------------------------------------------------
    # Flat (legacy keyword) surface
    # ------------------------------------------------------------------
    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> ServeConfig:
        """Build a config from the legacy flat ``ServeEngine`` keyword
        surface (``batch_size=..., data_dir=..., ...``).

        Unknown names raise :class:`ConfigurationError` listing them —
        the same contract the engine's deprecation shim relies on.
        """
        owners = {f.name: section for section, f in _flat_fields()}
        unknown = sorted(set(kwargs) - set(owners))
        if unknown:
            raise ConfigurationError(
                f"unknown ServeEngine option(s): {', '.join(unknown)}"
            )
        top: dict[str, Any] = {}
        nested: dict[str, dict[str, Any]] = {n: {} for n, _ in _SECTIONS}
        for name, value in kwargs.items():
            owner = owners[name]
            if owner is None:
                top[name] = value
            else:
                nested[owner][name] = value
        sections = {
            name: section_cls(**nested[name])
            for name, section_cls in _SECTIONS
        }
        return cls(**top, **sections)

    def to_kwargs(self) -> dict[str, Any]:
        """The flat keyword view (inverse of :meth:`from_kwargs`)."""
        out: dict[str, Any] = {}
        for section, f in _flat_fields():
            src = self if section is None else getattr(self, section)
            out[f.name] = getattr(src, f.name)
        return out

    def replace(self, **kwargs: Any) -> ServeConfig:
        """A copy with the given flat options replaced (re-validated)."""
        merged = self.to_kwargs()
        unknown = sorted(set(kwargs) - set(merged))
        if unknown:
            raise ConfigurationError(
                f"unknown ServeEngine option(s): {', '.join(unknown)}"
            )
        merged.update(kwargs)
        return ServeConfig.from_kwargs(**merged)

    # ------------------------------------------------------------------
    # JSON surface
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A nested plain-dict view, JSON-serializable as-is."""
        out: dict[str, Any] = {
            f.name: getattr(self, f.name)
            for f in fields(ServeConfig)
            if f.name not in dict(_SECTIONS)
        }
        for name, _ in _SECTIONS:
            section = getattr(self, name)
            out[name] = {
                f.name: getattr(section, f.name)
                for f in fields(type(section))
            }
        return out

    @classmethod
    def from_dict(cls, data: Any) -> ServeConfig:
        """Rebuild from :meth:`to_dict` output (e.g. a ``--config``
        JSON file); unknown keys raise :class:`ConfigurationError`."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                "config must be a JSON object of ServeConfig fields, "
                f"got {type(data).__name__}"
            )
        section_by_name = dict(_SECTIONS)
        top_names = {
            f.name for f in fields(cls) if f.name not in section_by_name
        }
        unknown = sorted(set(data) - top_names - set(section_by_name))
        if unknown:
            raise ConfigurationError(
                f"unknown config key(s): {', '.join(unknown)}"
            )
        top = {k: v for k, v in data.items() if k in top_names}
        sections: dict[str, Any] = {}
        for name, section_cls in _SECTIONS:
            sub = data.get(name, {})
            if not isinstance(sub, dict):
                raise ConfigurationError(
                    f"config section {name!r} must be a JSON object, "
                    f"got {type(sub).__name__}"
                )
            known = {f.name for f in fields(section_cls)}
            bad = sorted(set(sub) - known)
            if bad:
                raise ConfigurationError(
                    f"unknown config key(s) in section {name!r}: "
                    f"{', '.join(bad)}"
                )
            sections[name] = section_cls(**sub)
        return cls(**top, **sections)


_SECTIONS = (
    ("durability", DurabilityConfig),
    ("admission", AdmissionConfig),
    ("retry", RetryConfig),
)


def _flat_fields():
    """Yield ``(section name or None, field)`` over the whole flat
    surface, in declaration (and therefore CLI ``--help``) order."""
    section_names = {name for name, _ in _SECTIONS}
    for f in fields(ServeConfig):
        if f.name not in section_names:
            yield None, f
    for name, section_cls in _SECTIONS:
        for f in fields(section_cls):
            yield name, f


# ----------------------------------------------------------------------
# CLI generation (single source of truth for repro serve / repro cluster)
# ----------------------------------------------------------------------
def add_config_arguments(
    parser: argparse.ArgumentParser,
    exclude: tuple[str, ...] = (),
) -> None:
    """Add one flag per :class:`ServeConfig` field to ``parser``.

    Every generated flag defaults to ``None`` ("not set on the command
    line"), so :func:`config_from_args` can overlay only the flags the
    user actually passed onto a ``--config`` file or the defaults.
    Field metadata supplies help text, choices, and the occasional
    historical flag spelling (``--checkpoint-bytes``).
    """
    for _, f in _flat_fields():
        if f.name in exclude:
            continue
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        help_ = f.metadata.get("help", f.name)
        if isinstance(f.default, bool):
            parser.add_argument(
                flag,
                dest=f.name,
                action=argparse.BooleanOptionalAction,
                default=None,
                help=f"{help_} (default: {f.default})",
            )
            continue
        kwargs: dict[str, Any] = {
            "dest": f.name,
            "default": None,
            "help": f"{help_} (default: {f.default})",
        }
        if "choices" in f.metadata:
            kwargs["choices"] = list(f.metadata["choices"])
        if "arg" in f.metadata:
            kwargs["type"] = f.metadata["arg"]
        parser.add_argument(flag, **kwargs)


def config_from_args(
    args: argparse.Namespace,
    base: ServeConfig | None = None,
) -> ServeConfig:
    """Overlay the flags actually set in ``args`` onto ``base`` (or the
    defaults) and return the validated result."""
    config = base if base is not None else ServeConfig()
    overrides = {}
    for _, f in _flat_fields():
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return config.replace(**overrides) if overrides else config


def load_config_file(path: str | Path) -> ServeConfig:
    """Load a :meth:`ServeConfig.to_dict`-shaped JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read config file {path}: {exc}"
        ) from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(
            f"config file {path} is not valid JSON: {exc}"
        ) from exc
    return ServeConfig.from_dict(data)
