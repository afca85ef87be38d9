"""Exception types shared across the package."""


class SceneFusionError(Exception):
    """Base class for all scenefusion errors."""


class ConfigError(SceneFusionError):
    """Invalid configuration: bad dimensions, degenerate boxes, bad parameters."""


class EmptyInputError(SceneFusionError):
    """An operation that needs at least one point/frame/record got none."""


class TokenizationError(SceneFusionError):
    """A word is not in the frozen vocabulary. Names the word."""

    def __init__(self, msg, word=None):
        super().__init__(msg)
        self.word = word


class ArtifactFormatError(SceneFusionError):
    """Bad magic, wrong version, or a truncated/corrupt artifact or dataset file."""


class TrainingDivergedError(SceneFusionError):
    """Loss became NaN/inf during training; carries the offending step."""

    def __init__(self, msg, step=None, loss=None):
        super().__init__(msg)
        self.step = step
        self.loss = loss


class GenerationError(SceneFusionError):
    """World generation could not place an object after bounded retries."""


class EpisodeFailure(SceneFusionError):
    """Planner output was unparseable; carries the transcript of model outputs."""

    def __init__(self, msg, transcript=None):
        super().__init__(msg)
        self.transcript = transcript
