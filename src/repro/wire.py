"""Length-prefixed JSON wire protocol shared by server and client.

A connection carries a stream of **frames**::

    u32 big-endian body length | body (UTF-8 JSON object)

Requests are objects with an ``id`` (client-chosen, echoed back) and
an ``op``; remaining keys are operation parameters.  Responses echo
the ``id`` and carry ``ok``: on success the payload is under
``result``, on failure ``error`` holds a stable error code plus a
human ``message`` (and op-specific hints such as ``retry_after_ms``
for :data:`E_BUSY`).  Because every response is tagged with its
request id, clients may **pipeline**: send many requests without
waiting, and match responses as they arrive (the server may answer
out of order).

The frame length is capped (:data:`MAX_FRAME_BYTES`) so a corrupt or
hostile peer cannot make the other side buffer unboundedly; an
oversized header is a protocol error and the connection is dropped.

See ``docs/serving.md`` for the full protocol specification.
"""

from __future__ import annotations

import json
import socket
import struct

__all__ = [
    "PROTOCOL_VERSION",
    "FEATURES",
    "MAX_FRAME_BYTES",
    "WireError",
    "encode_frame",
    "decode_header",
    "read_frame",
    "write_frame",
    "ok_response",
    "error_response",
    "hello_request",
    "check_hello",
    "E_BAD_REQUEST",
    "E_UNKNOWN_OP",
    "E_BUSY",
    "E_SHUTTING_DOWN",
    "E_NO_VIEW",
    "E_VIEW_INVALID",
    "E_ENGINE",
    "E_INTERNAL",
    "E_UNSUPPORTED_VERSION",
    "E_SHARD_DOWN",
    "E_NO_EPOCH",
    "E_DOC_MOVED",
    "E_RESULT_TOO_LARGE",
]

#: Bumped on incompatible protocol changes; exchanged in ``hello``.
PROTOCOL_VERSION = 1

#: Optional capabilities this protocol version serves.  A client may
#: name the features it needs in its ``hello``; a server that lacks
#: any of them answers ``unsupported_version`` instead of failing in
#: undefined ways mid-session.
FEATURES = ("views", "rows", "scatter", "replication", "as_of", "elastic")

#: Upper bound on one frame's body size (16 MiB).
MAX_FRAME_BYTES = 16 << 20

_HEADER = struct.Struct(">I")

# Stable error codes (the ``error`` field of failure responses).
E_BAD_REQUEST = "bad_request"      # malformed frame/params
E_UNKNOWN_OP = "unknown_op"        # op not in the dispatch table
E_BUSY = "busy"                    # update queue full; retry later
E_SHUTTING_DOWN = "shutting_down"  # server draining; no new work
E_NO_VIEW = "no_view"              # unknown view token
E_VIEW_INVALID = "view_invalid"    # pinned view structurally invalidated
E_ENGINE = "engine"                # engine-level ReproError
E_INTERNAL = "internal"            # unexpected server-side failure
E_UNSUPPORTED_VERSION = "unsupported_version"  # hello version/feature mismatch
E_SHARD_DOWN = "shard_down"        # coordinator: owning shard unreachable
E_NO_EPOCH = "epoch_not_retained"  # as_of epoch outside the retained window
E_DOC_MOVED = "doc_moved"          # placement changed under the request; retry
E_RESULT_TOO_LARGE = "result_too_large"  # response exceeds MAX_FRAME_BYTES


class WireError(Exception):
    """A framing-level protocol violation (connection must close)."""


def encode_frame(message: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(body)} bytes exceeds "
                        f"{MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_header(header: bytes) -> int:
    """Body length from a 4-byte frame header (validates the cap)."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on a clean mid-message EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict | None:
    """Blocking frame read from a socket; None on EOF at a frame
    boundary, :class:`WireError` on a torn or malformed frame."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length = decode_header(header)
    body = _recv_exact(sock, length)
    if body is None:
        raise WireError("connection closed mid-frame")
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise WireError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise WireError("frame body must be a JSON object")
    return message


def write_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def ok_response(request_id, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str, **extra) -> dict:
    response = {"id": request_id, "ok": False, "error": code,
                "message": message}
    response.update(extra)
    return response


def hello_request(features: tuple[str, ...] | list[str] = ()) -> dict:
    """Parameters of a version-checked ``hello`` request."""
    params: dict = {"protocol": PROTOCOL_VERSION}
    if features:
        params["features"] = list(features)
    return params


def check_hello(message: dict) -> str | None:
    """Validate a ``hello`` request against this side's protocol.

    Returns ``None`` when the peer is compatible, else a human-readable
    reason for an :data:`E_UNSUPPORTED_VERSION` rejection.  A ``hello``
    carrying **no** ``protocol`` field is accepted — pre-handshake
    clients never announced one, and the response still advertises the
    server's version so they can check it themselves.
    """
    version = message.get("protocol")
    if version is not None and version != PROTOCOL_VERSION:
        return (f"peer speaks protocol {version!r}, this side speaks "
                f"{PROTOCOL_VERSION}")
    requested = message.get("features") or []
    missing = sorted(set(requested) - set(FEATURES))
    if missing:
        return f"unsupported features requested: {', '.join(missing)}"
    return None
