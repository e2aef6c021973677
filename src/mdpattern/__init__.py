"""mdpattern: extract machine-independent RTL patterns from GCC-style
machine description files and measure cross-architecture similarity."""

__version__ = "0.1.0"


class Error(Exception):
    """A failure the CLI reports as ``mdpattern: <message>``; `status` is its
    exit status, 2 (parse failure) unless a subclass or the raiser says
    otherwise."""

    status = 2

    def __init__(self, msg, status=None):
        super().__init__(msg)
        self.status = status or self.status


def read_text(path, error=Error):
    """The text of the UTF-8 file `path`; a file that cannot be opened or
    decoded raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error("%s: %s" % (path, exc)) from None
    except OSError as exc:
        raise error("%s: %s" % (path, exc.strerror)) from None
