"""kdbench: a benchmark harness for keystroke-dynamics biometric verification.

Raw keystroke logs (or the built-in synthetic generator) flow through
feature extraction, open-set protocol construction, a deterministic
reference verifier, and a verification + demographic-fairness metrics
suite, with bit-exact file formats at every stage.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    AgeGroup,
    ALL_GROUPS,
    Dataset,
    Demographics,
    Gender,
    Session,
    Subject,
    eligibility_issues,
    filter_eligible,
    parse_raw_log,
)
from .features import FeatureConfig, FeatureMatrix, FeatureSet, extract_features  # noqa: F401
from .protocol import (  # noqa: F401
    Comparison,
    ComparisonKind,
    ComparisonPlan,
    SplitConfig,
    aggregate_scores,
    build_comparison_plan,
    split_dataset,
)
from .synthgen import GeneratorConfig, TypingProfile, generate  # noqa: F401
