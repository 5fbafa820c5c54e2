"""Small file helpers: atomic writes, checked text reads and content fingerprints."""

import hashlib
import os
import tempfile

from .errors import ParameterError, SchemaError


def atomic_write_text(path: str, text: str) -> None:
    """Write-to-temp then rename, so failures never leave a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    except OSError as exc:  # a missing or unwritable directory: name the file asked for
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def read_text(path: str) -> str:
    """Contents of a UTF-8 text file; undecodable bytes raise SchemaError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()
