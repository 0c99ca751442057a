"""Exception types raised by the fedchain library."""


class FedChainError(Exception):
    """Base class for all fedchain errors."""


class InvalidTopologyError(FedChainError):
    """Topology request cannot be satisfied (e.g. fewer than two nodes)."""


class NodeNotFoundError(FedChainError):
    """A message names a node id outside the simulated node set."""


class InvalidObservationError(FedChainError):
    """Latency observation is non-positive or recorded for a self-loop."""


class TimeTravelError(FedChainError):
    """An event handler enqueued an event before the current clock."""


class InsufficientHistoryError(FedChainError):
    """A node pair has no latency observations to average."""


class TooManyPoolsError(FedChainError):
    """Requested more pool heads than there are nodes."""


class EstimateCountError(FedChainError):
    """Pool training-time estimates are not one per pool head."""


class ModelTooSmallError(FedChainError):
    """Weight vector is shorter than the requested chunk count."""


class MaskShapeError(FedChainError):
    """Noise mask length does not match the owner's chunk length."""


class ReadyTimeCountError(FedChainError):
    """Ring stream ready times are not one per member."""


class NonFiniteLossError(FedChainError):
    """Loss evaluation produced NaN or infinity."""


class TrainingDivergedError(FedChainError):
    """Local training drove the loss to a non-finite value."""


class UndefinedDivergenceError(FedChainError):
    """KL divergence undefined: reference histogram has a zero where the other is positive."""


class PartitionUnderflowError(FedChainError):
    """Dataset has fewer samples than requested partitions."""


class DatasetFixtureError(FedChainError):
    """A CSV dataset fixture is malformed or holds too few samples."""


class AggregationShapeError(FedChainError):
    """Weight vectors passed to aggregation disagree in shape."""


class EmptyChallengeError(FedChainError):
    """Proof requested over an empty challenge batch."""


class InsufficientSamplesError(FedChainError):
    """Accuracy claim checked with fewer samples than the configured minimum."""


class InvalidTaskError(FedChainError):
    """Task is malformed (bad target, deadline in the past, ...)."""


class InvalidCommitteeError(FedChainError):
    """A round asks for fewer than one verifier."""


class InvalidPowSettingsError(FedChainError):
    """A proof-of-work round's difficulty or trial cost is out of range."""


class RoundFailedError(FedChainError):
    """No pool reached the accuracy target before the task deadline."""


class LedgerIntegrityError(FedChainError):
    """A ledger is malformed, or a block's stored hash does not match its contents."""


class DuplicateTaskBlockError(FedChainError):
    """A block was appended for a task that already has one on the chain."""


class EmptyReportError(FedChainError):
    """Report emission requested with no run records."""
