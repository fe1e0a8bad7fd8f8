"""True few-shot NER prompting: sample k sentences, search prompt features
by leave-one-out micro-F1, annotate and score."""

from .backend import (
    CachedBackend,
    DiskCache,
    EchoBackend,
    GenerationRecord,
    GenerationRequest,
    HttpCompletionBackend,
    OracleBackend,
    make_noisy_oracle,
    request_digest,
)
from .corpus import (
    AnnotatedSentence,
    EntitySpan,
    EntityType,
    FewShotSample,
    load_corpus,
    load_entity_types,
    sample_fewshot,
    save_corpus,
)
from .decode import (
    DecodeDiagnostics,
    DecodeResult,
    PredictionSet,
    apply_verification,
    decode_listing,
    decode_tagged,
    parse_verification,
)
from .errors import (
    BackendError,
    ConfigError,
    DataError,
    FewnerError,
)
from .evaluation import (
    CarbonEstimate,
    EvalReport,
    GridProfile,
    HardwareProfile,
    TypeScore,
    estimate_carbon,
    score,
)
from .search import (
    PipelineSettings,
    PromptingPipeline,
    SearchTrace,
    greedy_search,
    grid_search,
)
from .selection import build_index, select_entity_rich, select_nearest
from .synthetic import synthetic_corpus
from .templates import (
    FEATURE_NAMES,
    PromptConfig,
    RenderedPrompt,
    render_main_prompt,
    render_verification_prompt,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedSentence",
    "BackendError",
    "CachedBackend",
    "CarbonEstimate",
    "ConfigError",
    "DataError",
    "DecodeDiagnostics",
    "DecodeResult",
    "DiskCache",
    "EchoBackend",
    "EntitySpan",
    "EntityType",
    "EvalReport",
    "FEATURE_NAMES",
    "FewShotSample",
    "FewnerError",
    "GenerationRecord",
    "GenerationRequest",
    "GridProfile",
    "HardwareProfile",
    "HttpCompletionBackend",
    "OracleBackend",
    "PipelineSettings",
    "PredictionSet",
    "PromptConfig",
    "PromptingPipeline",
    "RenderedPrompt",
    "SearchTrace",
    "TypeScore",
    "apply_verification",
    "build_index",
    "decode_listing",
    "decode_tagged",
    "estimate_carbon",
    "greedy_search",
    "grid_search",
    "load_corpus",
    "load_entity_types",
    "make_noisy_oracle",
    "parse_verification",
    "render_main_prompt",
    "render_verification_prompt",
    "request_digest",
    "sample_fewshot",
    "save_corpus",
    "score",
    "select_entity_rich",
    "select_nearest",
    "synthetic_corpus",
]
