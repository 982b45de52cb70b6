// Umbrella header for the serving layer: the multi-session streaming
// decode engine (DecodeServer), the sharded cluster on top of it
// (ShardedDecodeServer: snapshot failover, admission control,
// backpressure), their building blocks (Session, BatchGroup, ThreadPool,
// SessionSnapshot) and the stats snapshots.
#pragma once

#include "serve/batch_group.hpp"
#include "serve/cluster.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/snapshot.hpp"
#include "serve/stats.hpp"
#include "serve/thread_pool.hpp"
