"""The typed config surface: validation, round-trips, the deprecation
shim, and the generated CLI flags.

The redesign's contract: every way of spelling a configuration — typed
dataclasses, legacy flat kwargs, JSON dicts, generated CLI flags —
lands on the *same* validated value object, and the legacy spelling is
pinned behaviorally equivalent (same engine settings, same error
messages) so PRs 3-7 call sites keep working unchanged.
"""

import argparse
import json

import pytest

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.service import (
    AdmissionConfig,
    DurabilityConfig,
    RetryConfig,
    ServeConfig,
    ServeEngine,
)
from repro.service.config import (
    DEFAULT_SUBMIT_TIMEOUT,
    add_config_arguments,
    config_from_args,
    load_config_file,
)


def tiny_graph():
    g = DiGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return g


class TestFieldValidation:
    def test_defaults_validate(self):
        cfg = ServeConfig()
        assert cfg.batch_size == 64
        assert cfg.durability.data_dir is None
        assert cfg.admission.submit_timeout == DEFAULT_SUBMIT_TIMEOUT

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ServeConfig(batch_size=0),
            lambda: ServeConfig(strategy="nope"),
            lambda: ServeConfig(on_invalid="explode"),
            lambda: ServeConfig(on_poison="retry"),
            lambda: DurabilityConfig(wal_fsync="sometimes"),
            lambda: DurabilityConfig(checkpoint_wal_bytes=0),
            lambda: DurabilityConfig(full_checkpoint_every=0),
            lambda: AdmissionConfig(backpressure="panic"),
            lambda: AdmissionConfig(max_queue_depth=0),
            lambda: AdmissionConfig(
                max_queue_depth=4, submit_timeout=-1.0
            ),
            # the retired worker-count knob is unknown, not ignored
            lambda: ServeConfig.from_kwargs(workers=2),
            lambda: RetryConfig(io_retries=-1),
            lambda: RetryConfig(io_backoff_s=-0.1),
        ],
    )
    def test_bad_values_rejected_at_construction(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_sections_must_be_typed(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(durability={"data_dir": "/tmp/x"})

    def test_frozen(self):
        with pytest.raises(Exception):
            ServeConfig().batch_size = 1

    def test_path_like_data_dir_stored_as_str(self, tmp_path):
        cfg = DurabilityConfig(data_dir=tmp_path)
        assert cfg.data_dir == str(tmp_path)
        json.dumps(ServeConfig(durability=cfg).to_dict())  # must not raise


class TestSubmitTimeoutFix:
    """A non-default submit_timeout used to be silently ignored when the
    queue was unbounded; it is now rejected at construction."""

    def test_timeout_without_bound_rejected(self):
        with pytest.raises(ConfigurationError, match="bounded admission"):
            AdmissionConfig(submit_timeout=5.0)

    def test_timeout_with_bound_accepted(self):
        cfg = AdmissionConfig(max_queue_depth=8, submit_timeout=5.0)
        assert cfg.submit_timeout == 5.0

    def test_default_timeout_without_bound_is_fine(self):
        assert AdmissionConfig().max_queue_depth is None

    def test_none_timeout_means_wait_forever(self):
        cfg = AdmissionConfig(max_queue_depth=8, submit_timeout=None)
        assert cfg.submit_timeout is None

    def test_legacy_kwarg_spelling_also_rejected(self):
        with pytest.raises(ConfigurationError, match="bounded admission"):
            ServeConfig.from_kwargs(submit_timeout=5.0)


class TestRoundTrips:
    SAMPLE = dict(
        strategy="minimality",
        batch_size=8,
        rebuild_threshold=0.5,
        on_invalid="raise",
        on_poison="fail",
        wal_fsync="off",
        checkpoint_wal_bytes=1024,
        full_checkpoint_every=3,
        checkpoint_on_stop=False,
        max_queue_depth=32,
        backpressure="shed",
        submit_timeout=2.5,
        defer_deletions=True,
        io_retries=1,
        io_backoff_s=0.5,
        probe_backoff_s=0.25,
        probe_max_backoff_s=4.0,
    )

    def test_from_kwargs_to_kwargs(self):
        cfg = ServeConfig.from_kwargs(**self.SAMPLE)
        flat = cfg.to_kwargs()
        for name, value in self.SAMPLE.items():
            assert flat[name] == value
        assert ServeConfig.from_kwargs(**flat) == cfg

    def test_to_dict_from_dict(self):
        cfg = ServeConfig.from_kwargs(**self.SAMPLE)
        data = json.loads(json.dumps(cfg.to_dict()))
        assert ServeConfig.from_dict(data) == cfg

    def test_replace_revalidates(self):
        cfg = ServeConfig()
        assert cfg.replace(batch_size=2).batch_size == 2
        with pytest.raises(ConfigurationError):
            cfg.replace(batch_size=0)
        with pytest.raises(ConfigurationError):
            cfg.replace(bogus=1)

    def test_unknown_kwargs_listed(self):
        with pytest.raises(
            ConfigurationError, match="unknown ServeEngine option"
        ) as exc:
            ServeConfig.from_kwargs(batch_sze=4, dat_dir="/x")
        assert "batch_sze" in str(exc.value) and "dat_dir" in str(exc.value)

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            ServeConfig.from_dict({"batch_size": 4, "extra": 1})
        with pytest.raises(ConfigurationError, match="retry"):
            ServeConfig.from_dict({"retry": {"io_retriez": 2}})
        with pytest.raises(ConfigurationError):
            ServeConfig.from_dict(["not", "a", "dict"])


class TestDeprecationShim:
    def test_legacy_kwargs_warn_and_pin_equivalent(self):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            legacy = ServeEngine(
                tiny_graph(), batch_size=4, strategy="minimality",
                rebuild_threshold=0.75,
            )
        typed = ServeEngine(
            tiny_graph(),
            config=ServeConfig(
                batch_size=4, strategy="minimality",
                rebuild_threshold=0.75,
            ),
        )
        # Pinned equivalent: the shim lands on the identical config.
        assert legacy.config == typed.config

    def test_typed_path_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ServeEngine(tiny_graph(), config=ServeConfig(batch_size=4))

    def test_mixing_config_and_kwargs_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ServeEngine(
                tiny_graph(), config=ServeConfig(), batch_size=4
            )

    def test_unknown_legacy_kwarg_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            with pytest.warns(DeprecationWarning):
                ServeEngine(tiny_graph(), batch_sizee=4)

    def test_config_must_be_a_serveconfig(self):
        with pytest.raises(ConfigurationError, match="ServeConfig"):
            ServeEngine(tiny_graph(), config={"batch_size": 4})

    def test_engine_exposes_its_config(self):
        cfg = ServeConfig(batch_size=4)
        assert ServeEngine(tiny_graph(), config=cfg).config is cfg


class TestGeneratedCli:
    def parser(self, exclude=()):
        p = argparse.ArgumentParser()
        add_config_arguments(p, exclude=exclude)
        return p

    def test_every_flat_field_has_a_flag(self):
        args = self.parser().parse_args([])
        for name in ServeConfig().to_kwargs():
            assert hasattr(args, name)
            assert getattr(args, name) is None  # "not set"

    def test_flags_overlay_defaults(self):
        args = self.parser().parse_args(
            ["--batch-size", "8", "--backpressure", "shed",
             "--max-queue-depth", "16", "--defer-deletions"]
        )
        cfg = config_from_args(args)
        assert cfg.batch_size == 8
        assert cfg.admission.backpressure == "shed"
        assert cfg.admission.max_queue_depth == 16
        assert cfg.defer.defer_deletions is True
        # Untouched fields keep their defaults.
        assert cfg.retry.io_retries == 4

    def test_historical_flag_spelling_preserved(self, tmp_path):
        args = self.parser().parse_args(["--checkpoint-bytes", "512"])
        assert config_from_args(args).durability.checkpoint_wal_bytes == 512

    def test_bool_flags_support_negation(self):
        args = self.parser().parse_args(["--no-checkpoint-on-stop"])
        assert (
            config_from_args(args).durability.checkpoint_on_stop is False
        )

    def test_choices_enforced(self):
        with pytest.raises(SystemExit):
            self.parser().parse_args(["--wal-fsync", "sometimes"])

    def test_exclude(self):
        args = self.parser(exclude=("data_dir",)).parse_args([])
        assert not hasattr(args, "data_dir")

    def test_flags_overlay_a_config_file_base(self, tmp_path):
        base = ServeConfig(batch_size=8, on_invalid="raise")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base.to_dict()))
        loaded = load_config_file(path)
        assert loaded == base
        args = self.parser().parse_args(["--batch-size", "32"])
        merged = config_from_args(args, base=loaded)
        assert merged.batch_size == 32  # flag wins
        assert merged.on_invalid == "raise"  # file survives

    def test_config_file_errors_are_typed(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config_file(bad)
