pub fn list_of(cfg: &ShardConfig, v: VertexId) -> usize {
    cfg.shard_index_for(v)
}
