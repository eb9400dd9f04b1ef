pub fn shard_index_for(v: u32, shards: usize) -> usize {
    (v as usize).wrapping_mul(0x9E37_79B9) % shards
}

// The one sanctioned wrapper: the generic graph layer asks its route.
pub fn store_of(v: u32, shards: usize) -> usize {
    shard_index_for(v, shards)
}
