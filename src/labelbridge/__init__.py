"""Multi-label classification with statistical label-co-occurrence graphs,
GCN-learned label embeddings, and low-rank bilinear GroupSum fusion."""

__version__ = "0.1.0"

from .data import (Dataset, LabelVocabulary, UncertainPolicy, load_features,
                   parse_columnar_labels, parse_pipe_labels, split_dataset,
                   write_pipe_labels)
from .embeddings import embed_labels, load_word_vectors, synthetic_embeddings
from .graph import (binarize, build_correlation_graph, conditional_matrix,
                    count_cooccurrence, graph_from_conditional, normalize, reweight)
from .gcn import GcnStack, dims_for_depth, gcn_backward, gcn_forward
from .fusion import (FusionParameters, fusion_backward_batch, fusion_forward_batch,
                     group_sum)
from .backbone import (FeatureRecord, LabeledSample, SyntheticSpec, ToyMlp,
                       generate_synthetic_dataset, to_dataset)
from .metrics import (auc_score, build_report, overall_prf, roc_curve, sigmoid,
                      top_k_table)
from .model import Gradients, Network
from .training import (Checkpoint, DataBundle, Run, Sgd, TrainConfig,
                       TrainResult, load_checkpoint, multilabel_loss,
                       multilabel_loss_batch, network_from_checkpoint,
                       save_checkpoint, sgd_step, train)
