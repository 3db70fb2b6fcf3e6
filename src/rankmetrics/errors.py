"""The one exception type for input a user can fix: every error a config,
corpus, sidecar, flag value or selection can cause is a `DataError` that
carries its message, and the command line reports it as
``error: <message>`` with exit 1."""


class DataError(ValueError):
    """Bad input: a file, value or selection the user can fix."""


def read_text(path) -> str:
    """The text of a small UTF-8 file, a leading byte-order mark dropped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(path, exc)) from None


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """Name the first line that is not UTF-8; decoding runs ahead of the
    reader in blocks, so the error itself does not locate the line."""
    with open(path, "rb") as handle:
        for line, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return f"{path}: line {line} is not valid UTF-8 ({exc.reason})"
