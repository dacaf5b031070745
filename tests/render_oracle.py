"""Reference renderings of a response's wire text and an audit record's
line, written field by field on every call: the program renders a
response's head once and keeps it (`ResponseContext.wire_head`), and
scans an audit record's caller-supplied fields once (`AuditRecord.to_line`).
Both must give these bytes."""

from __future__ import annotations

import base64

from lexgate.errors import WireFormatError
from lexgate.instant import format_instant
from lexgate.model import is_wire_text, single_line
from lexgate.parsing.policy_xml import format_typed_value


def audit_field(text: str) -> str:
    """`-` when empty, made single-line, with `%` as `%25` and `|` as `%7C`."""
    text = single_line(text or "-")
    if "|" in text or "%" in text:
        text = text.replace("%", "%25").replace("|", "%7C")
    return text


def audit_line(record) -> str:
    obligations = ",".join(record.obligations_executed) or "-"
    return (
        f"{format_instant(record.at)}|{audit_field(record.requester)}|"
        f"{audit_field(record.resource)}|{audit_field(record.action)}|"
        f"{record.decision.value}|{record.status}|{record.trace_digest}|{obligations}"
    )


def _check_single_line(text: str, what: str) -> str:
    if not is_wire_text(text):
        raise WireFormatError(f"{what} must be one line of UTF-8, without line breaks: {text!r}")
    return text


def _view_line(view) -> str:
    expires = format_instant(view.expires_at) if view.expires_at else "-"
    payload = base64.b64encode(str(view.payload).encode("utf-8")).decode("ascii")
    return f"view {view.mode.value} {expires} {payload}"


def response_bytes(response, view=None) -> bytes:
    out = ["response"]
    out.append(f"decision {response.decision.value}")
    out.append(f"status {response.status}")
    for ob in response.obligations:
        out.append(f"obligation {ob.id} {ob.fulfill_on.value}")
        for name, value in ob.parameters:
            text = _check_single_line(format_typed_value(value), "obligation parameter")
            out.append(f"param {name} {value.data_type.value} {text}".rstrip())
    head = "\n".join(out) + "\n"
    closing = b"end\n" if view is None else f"{_view_line(view)}\nend\n".encode("utf-8")
    return b"".join([head.encode("utf-8"), *response.trace.body, closing])
