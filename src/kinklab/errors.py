"""Exception hierarchy. Every error raised by the library derives from KinklabError."""


class KinklabError(Exception):
    pass


class BadWord(KinklabError):
    """Input is not a string over {0, 1}."""


class WordTooShort(KinklabError):
    """A word of length < 3 cannot be stepped (length < 2n+1 for n steps)."""


class WidthTooSmall(KinklabError):
    """Cyclic configurations need width >= 3 so every neighborhood is defined."""


class NotTwoKink(KinklabError):
    """Operation is only defined on words with exactly two kinks."""


class PadTooLarge(KinklabError):
    pass


class DegenerateWindow(KinklabError):
    pass
