"""Error taxonomy shared across the package.

Everything derives from ValueError so callers can catch broadly; the CLI maps
any GevstError to exit code 1 with the message on stderr.
"""


class GevstError(ValueError):
    pass


class ShapeError(GevstError):
    """Operand shapes incompatible with an operation. Message names both shapes."""


class ContractError(GevstError):
    """An API precondition was violated (non-scalar loss, all-pad targets, ...)."""


class VocabularyError(GevstError):
    """Token id outside the embedding table. Message names the offending id."""


class GeometryError(GevstError):
    """Invalid bounding box (empty, negative, or outside the image)."""


class InputError(GevstError):
    """Bad runtime input that is not a shape problem (empty region set, ...)."""


class ConfigError(GevstError):
    """Invalid configuration value; raised at construction, before any math."""


class ParseError(GevstError):
    """Malformed serialized data. Carries the 1-based line number where known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(GevstError):
    """Structurally valid data missing or mistyping a required field."""


class TrainingDiverged(GevstError):
    """Loss became non-finite during optimization."""


class DecodeDiverged(GevstError):
    """A decoding step gave non-finite log-probs in a row of `scene`."""

    def __init__(self, scene):
        self.scene = scene
        super().__init__(f"decoding log-probs became non-finite on scene {scene!r}")
