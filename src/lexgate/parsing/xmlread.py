"""Minimal XML reader used for the policy dialect and zone+ documents.

Built directly on expat (non-namespace mode) for two reasons the stdlib
ElementTree front-end cannot cover: every element records its source line
for validation reports, and documents may use the bare ``gml:`` prefix
without a namespace declaration, exactly as location suppliers print it.
Prefixes are stripped, so ``gml:pos`` and ``pos`` are the same element.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field

from ..errors import PolicySyntaxError


@dataclass
class XmlNode:
    tag: str
    attrs: dict[str, str]
    line: int
    children: list["XmlNode"] = field(default_factory=list)
    text_parts: list[str] = field(default_factory=list)
    parent: "XmlNode | None" = None

    @property
    def text(self) -> str:
        return "".join(self.text_parts)

    def find(self, tag: str) -> "XmlNode | None":
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def findall(self, tag: str) -> list["XmlNode"]:
        return [child for child in self.children if child.tag == tag]

    def path(self) -> str:
        parts = []
        node: XmlNode | None = self
        while node is not None:
            parts.append(node.tag)
            node = node.parent
        return "/" + "/".join(reversed(parts))


def _local(name: str) -> str:
    return name.rsplit(":", 1)[-1]


def parse_xml(data: bytes | str) -> XmlNode:
    """Parse a complete document; raises PolicySyntaxError with line info."""
    if isinstance(data, str):
        data = data.encode("utf-8")

    parser = xml.parsers.expat.ParserCreate()
    root: list[XmlNode] = []
    stack: list[XmlNode] = []

    def start(name, attrs):
        node = XmlNode(
            tag=_local(name),
            attrs={_local(k): v for k, v in attrs.items()},
            line=parser.CurrentLineNumber,
        )
        if stack:
            node.parent = stack[-1]
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(name):
        stack.pop()

    def chars(content):
        if stack:
            stack[-1].text_parts.append(content)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise PolicySyntaxError(
            f"malformed markup: {xml.parsers.expat.errors.messages[exc.code]}",
            path="/".join(n.tag for n in stack) or "/",
            line=exc.lineno,
        ) from exc
    except (LookupError, ValueError) as exc:
        # expat raises these for the encoding an XML declaration names: an
        # unknown codec, or a multi-byte one it cannot decode.
        raise PolicySyntaxError(
            f"unsupported encoding: {exc}",
            path="/".join(n.tag for n in stack) or "/",
            line=parser.CurrentLineNumber,
        ) from exc
    if not root:
        raise PolicySyntaxError("empty document")
    return root[0]


def escape_text(value: str) -> str:
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def escape_attr(value: str) -> str:
    return escape_text(value).replace('"', "&quot;")


class XmlWriter:
    """Tiny deterministic serializer (two-space indent, stable attr order)."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._depth = 0

    def _indent(self) -> str:
        return "  " * self._depth

    def open(self, tag: str, **attrs: str) -> None:
        self._lines.append(self._indent() + self._format_open(tag, attrs) + ">")
        self._depth += 1

    def close(self, tag: str) -> None:
        self._depth -= 1
        self._lines.append(f"{self._indent()}</{tag}>")

    def leaf(self, tag: str, text: str = "", **attrs: str) -> None:
        head = self._format_open(tag, attrs)
        if text:
            self._lines.append(f"{self._indent()}{head}>{escape_text(text)}</{tag}>")
        else:
            self._lines.append(f"{self._indent()}{head}/>")

    @staticmethod
    def _format_open(tag: str, attrs: dict[str, str]) -> str:
        pieces = [f"<{tag}"]
        for key, value in attrs.items():
            pieces.append(f' {key}="{escape_attr(value)}"')
        return "".join(pieces)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"
