"""The text format of document and sequence corpus files: blank and ``#``
lines are skipped, and a ``V=<int>`` header (the vocabulary size, from 1
to ``MAX_VOCAB_SIZE``) comes before the first data line; it may repeat
only with that value.
"""

from .errors import DataError

# Documents are dense count rows of V floats, so the header alone sets
# the memory a short file asks for: at this cap, 800 kB per document.
MAX_VOCAB_SIZE = 100_000


def write_corpus(path, lines, vocab_size: int, header_comment: str) -> None:
    """``header_comment`` as ``#`` lines, the ``V=`` header, then ``lines``."""
    with open(path, "w") as f:
        if header_comment:
            for line in header_comment.splitlines():
                f.write(f"# {line}\n")
        f.write(f"V={vocab_size}\n")
        for line in lines:
            f.write(line + "\n")


def read_corpus(path, item: str, parse) -> tuple:
    """Returns (items, vocab_size): ``parse(line, "<path>:<lineno>",
    vocab_size)`` of each data line in file order.  ``item`` names a data
    line in the error for one before the header."""
    items = []
    vocab_size = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("V="):
                try:
                    header = int(line[2:])
                except ValueError:
                    header = 0
                if header < 1 or vocab_size not in (None, header):
                    raise DataError(f"{path}:{lineno}: malformed V= header")
                if header > MAX_VOCAB_SIZE:
                    raise DataError(f"{path}:{lineno}: V={header} exceeds "
                                    f"the cap of {MAX_VOCAB_SIZE}")
                vocab_size = header
                continue
            if vocab_size is None:
                raise DataError(f"{path}:{lineno}: {item} before V= header")
            items.append(parse(line, f"{path}:{lineno}", vocab_size))
    if vocab_size is None:
        raise DataError(f"{path}: missing V= header")
    return items, vocab_size
