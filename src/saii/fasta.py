"""FASTA and raw-text ingestion.

A '>' line opens a record; its header is the text after '>'.  Sequence
lines are concatenated with all whitespace removed, blank lines are
ignored.  Input whose first non-blank character is not '>' is treated
as one anonymous raw sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SaiiError


@dataclass(frozen=True)
class FastaRecord:
    id: str
    sequence: str


class FastaFormatError(SaiiError):
    pass


def parse_fasta(text: str) -> list:
    records = []
    header = None
    parts: list = []

    def close():
        seq = "".join(parts)
        if not seq:
            raise FastaFormatError(f"record {header!r} has an empty sequence")
        records.append(FastaRecord(header, seq))

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                close()
            header = line[1:].strip()
            parts = []
        else:
            if header is None:
                raise FastaFormatError("sequence data before the first '>' header")
            parts.append("".join(line.split()))
    if header is None:
        raise FastaFormatError("no records found")
    close()
    return records


def read_sequences(path) -> list:
    """Records from a FASTA file, or one anonymous record for raw text."""
    with open(path, "r") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise FastaFormatError(f"{path}: not a text file (byte {err.start}: {err.reason})") from None
    stripped = text.lstrip()
    if stripped.startswith(">"):
        return parse_fasta(text)
    seq = "".join(text.split())
    if not seq:
        raise FastaFormatError(f"{path}: no sequence data")
    return [FastaRecord("", seq)]
