from .model import (
    EmbeddingStore,
    embed_rows,
    init_model_net,
    init_value_net,
    preprocess,
)
from .values import (
    AgentModelOutput,
    UtilityTables,
    act,
    agent_model_loss,
    joint_q,
    joint_values,
    marginal_q,
    marginal_values,
    spi_policy,
    td_target,
    value_loss,
)

__all__ = [
    "EmbeddingStore",
    "embed_rows",
    "init_model_net",
    "init_value_net",
    "preprocess",
    "AgentModelOutput",
    "UtilityTables",
    "act",
    "agent_model_loss",
    "joint_q",
    "joint_values",
    "marginal_q",
    "marginal_values",
    "spi_policy",
    "td_target",
    "value_loss",
]
