"""An instance document's JSON text read with its explicit opens as masks.

An explicit topology may list thousands of opens.  Decoded whole, with
``json.loads``, a document holds every open's label list at once, about
16 times the size of its file.  :func:`read_document` reads every other
value with the decoder's ``raw_decode`` and walks ``topology.opens``
itself, turning each open into a mask as soon as it is read.  It accepts
exactly what ``json.loads`` accepts: on invalid text it runs
``json.loads``, which raises the error it always raised.
"""

from __future__ import annotations

import json
import re

from ordtop import errors as err

_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # what JSON skips between tokens


class Opens:
    """A ``topology.opens`` array as read: the offset of its ``[``, the
    ``elements`` value its labels were looked up in, and their masks, or
    the error of the first open that is not a list of those labels.  (A
    plain class: a named tuple costs more to create at every start.)"""

    __slots__ = ("start", "elements", "masks")

    def __init__(
        self, start: int, elements: object, masks: list[int] | err.InstanceValidationError
    ) -> None:
        self.start, self.elements, self.masks = start, elements, masks


def read_document(text: str) -> object:
    """The document's JSON value, as ``json.loads`` gives it, except that
    ``topology.opens`` is read one open at a time into an :class:`Opens`.

    Each open becomes a mask as soon as it is read when ``elements`` came
    first, as in every document ordtop writes; otherwise, or when a later
    ``elements`` key replaced it, the array is read again from its offset.
    Invalid JSON raises the error ``json.loads`` raises for it.
    """
    i = _skip(text, 0)
    if not text.startswith("{", i):
        return json.loads(text)  # not an object, so it holds no opens
    raw: dict = {}
    try:
        i = _read_object(text, i, raw, raw)
        if _skip(text, i) != len(text):
            raise json.JSONDecodeError("Extra data", text, i)
    except json.JSONDecodeError:
        json.loads(text)  # raises the decoder's own error for this text
        raise
    topology, elements = raw.get("topology"), raw.get("elements")
    if isinstance(topology, dict):
        opens = topology.get("opens")
        if isinstance(opens, Opens) and opens.elements is not elements:
            topology["opens"] = _read_opens(text, opens.start, elements)[0]
    return raw


def _skip(text: str, i: int) -> int:
    return _WHITESPACE.match(text, i).end()


def _expect(text: str, i: int, char: str) -> int:
    """The offset past ``char`` at ``text[i]``."""
    if not text.startswith(char, i):
        raise json.JSONDecodeError(f"expecting {char!r}", text, i)
    return i + 1


def _read_object(text: str, i: int, out: dict, raw: dict) -> int:
    """Read the JSON object at ``text[i]`` into ``out``, which is either the
    document ``raw`` or its topology; returns the offset past its ``}``.  A
    repeated key keeps its first position and its last value, as in
    ``json.loads``."""
    i = _skip(text, i + 1)
    more = not text.startswith("}", i)
    while more:
        _expect(text, i, '"')
        key, i = _DECODER.raw_decode(text, i)
        i = _skip(text, _expect(text, _skip(text, i), ":"))
        if out is raw and key == "topology" and text.startswith("{", i):
            out[key] = {}
            i = _read_object(text, i, out[key], raw)
        elif out is not raw and key == "opens" and text.startswith("[", i):
            out[key], i = _read_opens(text, i, raw.get("elements"))
        else:
            out[key], i = _DECODER.raw_decode(text, i)
        i = _skip(text, i)
        more = text.startswith(",", i)
        if more:
            i = _skip(text, i + 1)
    return _expect(text, i, "}")


def _read_opens(text: str, start: int, elements: object) -> tuple[Opens, int]:
    """Read the array at ``text[start]`` one open at a time, each into a
    mask against ``elements``; no open's labels outlive their step.  Returns
    the record and the offset past the ``]``.  Against anything but a list
    of labels the masks are never used, since ``elements`` fails first."""
    bits = {}
    if isinstance(elements, list):
        bits = {x: 1 << k for k, x in enumerate(elements) if isinstance(x, str)}
    masks: list[int] = []
    error = None
    decode, skip = _DECODER.raw_decode, _WHITESPACE.match  # looked up once, used per open
    i = skip(text, start + 1).end()
    more = not text.startswith("]", i)
    while more:
        labels, i = decode(text, i)
        if error is None:
            mask = _open_mask(labels, bits)
            if isinstance(mask, str):
                error = err.InstanceValidationError(f"topology.opens[{len(masks)}]", mask)
            else:
                masks.append(mask)
        i = skip(text, i).end()
        more = text.startswith(",", i)
        if more:
            i = skip(text, i + 1).end()
    return Opens(start, elements, masks if error is None else error), _expect(text, i, "]")


def _open_mask(labels: object, bits: dict[str, int]) -> int | str:
    """The mask of one open's labels, or the reason they are not a list of
    labels in ``bits``."""
    if isinstance(labels, list):
        mask = 0
        try:
            for x in labels:
                mask |= bits[x]  # bits has string keys only, so a full pass means all are labels
            return mask
        except (KeyError, TypeError):
            if all(isinstance(x, str) for x in labels):
                return str(err.UnknownLabelError(next(x for x in labels if x not in bits)))
    return "must be a list of labels"
