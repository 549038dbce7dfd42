"""Stock embeddings from business-description text and company relation
graphs: joint encoder/GNN training with residual fusion, plus the retrieval
evaluation suite (related-company MAP@K, thematic-fund metric, ablations)."""

from .autodiff import Adam, Tensor, backward
from .data import (Dataset, GeneratorSpec, StockRecord, Taxonomy,
                   export_embeddings, generate_synthetic, load_edges,
                   load_embeddings, load_nodes, load_themes)
from .errors import (CheckpointError, ContractError, DataError, LabelError,
                     NonFiniteError, SetnError, ShapeError, TrainingError)
from .evaluation import (EmbeddingMatrix, average_precision_at_k, cosine_knn,
                         embed_universe, evaluate_map, map_at_k, theme_metric)
from .graph import (GnnParams, StockGraph, Subgraph, gat_layer, gcn_layer,
                    gcn_normalize, sample_subgraph, to_undirected)
from .model import ForwardResult, SetnModel, compute_loss
from .text import Vocab, pool, tokenize
from .training import (Split, TrainConfig, build_model, load_model, prepare_graph,
                       run_ablation, save_model, split_dataset, train)

__version__ = "0.1.0"
