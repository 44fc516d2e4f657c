"""Tests for the versioned fabric wire schema (`repro.core.fabric.protocol`)."""

import dataclasses
import json

import pytest

from repro.core.fabric.protocol import (
    PROTOCOL_VERSION,
    CheckpointAck,
    ChunkDone,
    Claim,
    Heartbeat,
    Hello,
    IterationResult,
    Lease,
    ProtocolError,
    Shutdown,
    StatusReply,
    StatusRequest,
    Welcome,
    WorkerError,
    config_from_dict,
    config_to_dict,
    decode,
    encode,
    task_from_dict,
    task_to_dict,
)
from repro.core.parallel import CellTask, MatrixCell
from repro.testing import tiny_campaign_config

#: One non-default instance of every message kind in the schema.
ALL_MESSAGES = (
    Hello(worker="w-1", pid=4242),
    Welcome(),
    Lease(chunk_id=7, cells=(2,), start=3, stop=9, tasks=None),
    # a one-iteration lease of an oracle group's three cells
    Lease(chunk_id=8, cells=(0, 4, 8), start=5, stop=5),
    Claim(worker="w-1", chunk_id=7),
    IterationResult(worker="w-1", chunk_id=7, cell_index=2, iteration=5,
                    duration=0.125, payload={"iterations": 1}),
    ChunkDone(worker="w-1", chunk_id=7),
    WorkerError(worker="w-1", chunk_id=7, cell_index=2, message="boom"),
    Heartbeat(worker="w-1", sent_at=12.5),
    CheckpointAck(worker="w-1", folded=10, persisted=True),
    Shutdown(reason="campaign complete"),
    StatusRequest(),
    StatusReply(snapshot={"iterations": 3}),
)


class TestFrameRoundTrips:
    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_every_kind_round_trips(self, message):
        assert decode(encode(message)) == message

    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_frames_survive_json(self, message):
        # The actual wire path: encode → json line → decode.
        frame = json.loads(json.dumps(encode(message)))
        assert decode(frame) == message

    def test_welcome_names_no_code(self):
        # Only names and data cross the wire: the handshake carries the
        # protocol version and nothing a worker would import.
        frame = json.loads(json.dumps(encode(Welcome())))
        assert frame == {"kind": "welcome", "v": PROTOCOL_VERSION,
                         "protocol": PROTOCOL_VERSION}
        assert decode(frame) == Welcome()

    def test_encode_tags_kind_and_version(self):
        frame = encode(Heartbeat(worker="w", sent_at=1.0))
        assert frame["kind"] == "heartbeat"
        assert frame["v"] == PROTOCOL_VERSION


class TestFrameRejection:
    def test_version_mismatch_rejected(self):
        frame = encode(Hello(worker="w", pid=1))
        frame["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="protocol version"):
            decode(frame)

    def test_missing_version_rejected(self):
        frame = encode(Hello(worker="w", pid=1))
        del frame["v"]
        with pytest.raises(ProtocolError, match="protocol version"):
            decode(frame)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fabric message"):
            decode({"kind": "teleport", "v": PROTOCOL_VERSION})

    def test_non_dict_frame_rejected(self):
        with pytest.raises(ProtocolError, match="must be a dict"):
            decode(["hello"])

    def test_encode_rejects_non_message(self):
        with pytest.raises(ProtocolError, match="not a fabric message"):
            encode({"kind": "hello"})

    def test_unknown_fields_dropped(self):
        # Additive same-version peers interoperate: extra fields are noise,
        # not an error.
        frame = encode(Claim(worker="w", chunk_id=3))
        frame["shiny_new_field"] = "ignored"
        assert decode(frame) == Claim(worker="w", chunk_id=3)


class TestCampaignObjectRoundTrips:
    def test_config_round_trips(self):
        config = tiny_campaign_config(iterations=6, seed=11, n_nodes=4)
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config))))
        # BugConfig compares by identity; normalize it before whole-config
        # equality and check the enabled set separately.
        assert rebuilt.bugs.enabled_ids() == config.bugs.enabled_ids()
        assert (dataclasses.replace(rebuilt, bugs=config.bugs)
                == config)

    def test_config_round_trip_preserves_op_pool(self):
        config = tiny_campaign_config()
        rebuilt = config_from_dict(config_to_dict(config))
        assert ({spec.op_kind for spec in rebuilt.generator.op_pool}
                == {spec.op_kind for spec in config.generator.op_pool})

    def test_config_round_trip_preserves_draw_order(self):
        # The generator draws ops and dtypes by iteration order; the wire
        # must not reorder either, or a remote worker would generate
        # different models for the same (config, iteration) seed.
        config = tiny_campaign_config()
        rebuilt = config_from_dict(json.loads(json.dumps(
            config_to_dict(config))))
        assert ([spec.op_kind for spec in rebuilt.generator.op_pool]
                == [spec.op_kind for spec in config.generator.op_pool])
        assert (list(rebuilt.generator.dtype_weights)
                == list(config.generator.dtype_weights))

    def test_unknown_op_kind_rejected(self):
        payload = config_to_dict(tiny_campaign_config())
        payload["generator"]["op_pool"].append("QuantumFourierTransform")
        with pytest.raises(ProtocolError, match="operator kinds"):
            config_from_dict(payload)

    def test_task_round_trips(self):
        task = CellTask(
            cell=MatrixCell(shard=1, compilers=("npbackend", "torchlike"),
                            opt_level=2, generator="nnsmith",
                            oracle="difftest", pipeline="O2"),
            config=tiny_campaign_config(seed=3),
            trace_coverage=True)
        rebuilt = task_from_dict(json.loads(json.dumps(task_to_dict(task))))
        assert rebuilt.cell == task.cell
        assert rebuilt.config.bugs.enabled_ids() == task.config.bugs.enabled_ids()
        assert (dataclasses.replace(rebuilt.config, bugs=task.config.bugs)
                == task.config)
        assert rebuilt.trace_coverage is True
