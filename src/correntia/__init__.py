"""correntia: correntropy-maximizing one-vs-all classifiers.

Linear and kernel predictors trained by alternating half-quadratic
updates of a regularized correntropy objective, square/hinge/logistic
baselines on the same representation pipeline, from-scratch evaluation
metrics (ROC, PR, AUC and the paired t statistic; the Student-t tail
comes from ``scipy.special``), and a deterministic experiment harness for
label-noise robustness studies.
"""

from .baselines import BaselineConfig, train_hinge, train_logistic, train_square
from .correntropy import (
    SigmaPolicy,
    correntropy_estimate,
    g_sigma,
    objective,
    sigma_heuristic,
)
from .dataset import (
    Dataset,
    SplitSpec,
    inject_label_noise,
    kfold,
    label_indicator,
    load_csv,
    load_features,
    split,
    write_csv,
)
from .evaluation import (
    ConfusionCounts,
    Curve,
    DegenerateDifferencesError,
    accuracy,
    auc,
    confusion_counts,
    multiclass_binary_scores,
    paired_ttest,
    pr_curve,
    roc_curve,
    student_t_sf,
)
from .harness import (
    DataSpec,
    EvalReport,
    ExperimentConfig,
    MethodSpec,
    ProtocolSpec,
    RepresentationSpec,
    SyntheticSpec,
    TTestResult,
    emit_reports,
    generate_synthetic,
    load_config,
    run_experiment,
    select_alpha_by_cv,
)
from .kernels import (
    KernelSpec,
    Representation,
    kernel_representation,
    linear_representation,
    median_bandwidth,
    represent_matrix,
)
from .regmaxcem import (
    DegenerateClassError,
    Model,
    PreparedColumns,
    TrainConfig,
    TrainTrace,
    e_step,
    load_model,
    m_step,
    predict_labels,
    prepare_columns,
    save_model,
    score_matrix,
    train,
)
from .seeding import child_seed, make_rng

__version__ = "0.12.0"
