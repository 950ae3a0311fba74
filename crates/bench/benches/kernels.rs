//! Criterion micro-benchmarks of the reproduction's hot kernels: the
//! cryptographic substrate, OVM sequence execution, mempool ordering and the
//! DQN forward/backward passes.

use criterion::{criterion_group, BenchmarkId, Criterion};
use parole_bench::economy::Economy;
use parole_crypto::{keccak256, keccak256_batch, CommitTree, MerkleTree};
use parole_drl::{BatchScratch, Mlp};
use parole_mempool::BedrockMempool;
use parole_ovm::Ovm;
use parole_primitives::Wei;
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let payload = vec![0xA5u8; 256];
    group.bench_function("keccak256_256B", |b| {
        b.iter(|| keccak256(black_box(&payload)))
    });
    // The commitment layer's bulk shapes: a page of account-leaf-sized
    // preimages, and a 2^16-leaf tree build at the state tree's derive
    // depth (both take the lane kernel where the CPU has AVX-512).
    let account_leaves: Vec<[u8; 52]> = (0..1024u32)
        .map(|i| {
            let mut preimage = [0u8; 52];
            preimage[..4].copy_from_slice(&i.to_be_bytes());
            preimage
        })
        .collect();
    group.bench_function("keccak256_batch_1024x52B", |b| {
        b.iter(|| keccak256_batch(black_box(&account_leaves)))
    });
    let tree_leaves: Vec<[u8; 52]> = (0..65_536u32)
        .map(|i| {
            let mut preimage = [0u8; 52];
            preimage[..4].copy_from_slice(&i.to_be_bytes());
            preimage
        })
        .collect();
    group.bench_function("commit_tree_build_65536", |b| {
        b.iter(|| CommitTree::from_preimages(2, black_box(&tree_leaves)).root())
    });
    let leaves: Vec<_> = (0..256u64).map(|i| keccak256(&i.to_be_bytes())).collect();
    group.bench_function("merkle_256_leaves", |b| {
        b.iter(|| MerkleTree::from_leaves(black_box(leaves.clone())).root())
    });
    let tree = MerkleTree::from_leaves(leaves.clone());
    let proof = tree.prove(100).unwrap();
    group.bench_function("merkle_verify", |b| {
        b.iter(|| black_box(&proof).verify(leaves[100], tree.root()))
    });
    group.finish();
}

fn bench_ovm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ovm");
    for n in [10usize, 50] {
        let economy = Economy::build(n, 1, 1);
        let window = economy.window(n, 1);
        let ovm = Ovm::new();
        group.bench_with_input(BenchmarkId::new("simulate_sequence", n), &n, |b, _| {
            b.iter(|| ovm.simulate_sequence(black_box(&economy.state), black_box(&window)))
        });
        group.bench_with_input(BenchmarkId::new("state_root", n), &n, |b, _| {
            b.iter(|| black_box(&economy.state).state_root())
        });
    }
    group.finish();
}

fn bench_state_root(c: &mut Criterion) {
    use parole_nft::CollectionConfig;
    use parole_primitives::{Address, TokenId};
    use parole_state::L2State;

    let funded = |n: usize| (1..=n as u64).map(|i| (Address::from_low_u64(i), Wei::from_gwei(i)));
    let mut group = c.benchmark_group("state_root");
    // Genesis: bulk-load 10^5 ascending accounts and build the first root
    // (the set-up every pipeline pass pays, at a tenth of its scale).
    let n = 100_000usize;
    group.bench_with_input(BenchmarkId::new("genesis", n), &n, |b, &n| {
        b.iter(|| black_box(L2State::from_accounts(funded(n))).state_root())
    });
    // One flush of 256 accounts at stride n/256: every dirty account sits
    // alone in its four-leaf group, so each re-derives three clean
    // neighbours and a level-1 sibling (the shape where a derived bottom
    // level costs the most; `incremental_dirty64` credits adjacent ones).
    let mut scattered = L2State::from_accounts(funded(n));
    let _ = scattered.state_root();
    group.bench_with_input(BenchmarkId::new("flush_scattered", n), &n, |b, &n| {
        b.iter(|| {
            for k in 0..256 {
                scattered.credit(
                    Address::from_low_u64((k * (n / 256) + 1) as u64),
                    Wei::from_wei(1),
                );
            }
            black_box(scattered.state_root())
        })
    });
    // Full rebuild vs the dirty-tracked incremental flush, and the cost of
    // a fork that writes, across world sizes (10^2..10^5 accounts) and
    // dirty-set sizes (1 and 64 records).
    for n in [100usize, 1_000, 10_000, 100_000] {
        let mut state = L2State::from_accounts(funded(n));
        for k in 0..16u64 {
            let coll = state.deploy_collection(CollectionConfig::limited_edition("BR", 64, 100));
            for t in 0..8u64 {
                state
                    .nft_mint(
                        coll,
                        Address::from_low_u64((k * 8 + t) % n as u64 + 1),
                        TokenId::new(t),
                    )
                    .unwrap()
                    .unwrap();
            }
        }

        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| black_box(&state).state_root_naive())
        });

        for dirty in [1usize, 64] {
            let mut warm = state.clone();
            let _ = warm.state_root(); // materialize the cache
            group.bench_with_input(
                BenchmarkId::new(format!("incremental_dirty{dirty}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        for d in 0..dirty as u64 {
                            warm.credit(Address::from_low_u64(d % n as u64 + 1), Wei::from_wei(1));
                        }
                        black_box(warm.state_root())
                    })
                },
            );
            report_keccak_per_flush(&mut warm, n, dirty);
        }

        // Fork cost: fork the committed world, credit `dirty` accounts on
        // the fork, flush its root. Pages are copy-on-write, so this pays
        // for the pages the credits and their tree paths land in, not for
        // a copy of the world.
        let _ = state.state_root();
        for dirty in [1usize, 64] {
            group.bench_with_input(
                BenchmarkId::new(format!("fork_dirty{dirty}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut fork = state.fork();
                        for d in 0..dirty as u64 {
                            fork.credit(Address::from_low_u64(d % n as u64 + 1), Wei::from_wei(1));
                        }
                        black_box(fork.state_root())
                    })
                },
            );
        }
    }
    group.finish();
}

/// Telemetry-armed companion readout for the incremental state-root bench:
/// the distribution of keccak invocations each flush actually performs, the
/// quantity the wall-clock numbers above are a proxy for.
#[cfg(feature = "telemetry")]
fn report_keccak_per_flush(warm: &mut parole_state::L2State, n: usize, dirty: usize) {
    use parole_primitives::Address;
    use parole_telemetry as tel;

    tel::reset();
    for round in 0..50u64 {
        for d in 0..dirty as u64 {
            warm.credit(
                Address::from_low_u64((round * dirty as u64 + d) % n as u64 + 1),
                Wei::from_wei(1),
            );
        }
        black_box(warm.state_root());
    }
    let snap = tel::snapshot();
    if let Some(h) = snap.histogram("state.keccak_per_root") {
        println!(
            "state_root/incremental_dirty{dirty}/{n}: keccak per flush min {} max {} mean {:.1} over {} flushes",
            h.min,
            h.max,
            h.mean(),
            h.count
        );
    }
    tel::reset();
}

#[cfg(not(feature = "telemetry"))]
fn report_keccak_per_flush(_warm: &mut parole_state::L2State, _n: usize, _dirty: usize) {}

fn bench_nft_flush(c: &mut Criterion) {
    use parole_nft::CollectionConfig;
    use parole_primitives::{Address, TokenId};
    use parole_state::L2State;

    let mut group = c.benchmark_group("nft_flush");
    // Single token op in a collection with n active tokens: the
    // hierarchical pipeline re-hashes one token leaf plus O(log n)
    // sub-tree nodes and the collection header.
    for n in [1_000usize, 10_000, 100_000] {
        let mut state = L2State::new();
        for i in 0..64u64 {
            state.credit(Address::from_low_u64(i + 1), Wei::from_gwei(i + 1));
        }
        let coll_addr =
            state.deploy_collection(CollectionConfig::limited_edition("NF", n as u64, 100));
        for t in 0..n as u64 {
            state
                .nft_mint(
                    coll_addr,
                    Address::from_low_u64(t % 64 + 1),
                    TokenId::new(t),
                )
                .unwrap()
                .unwrap();
        }

        // One real transfer plus the incremental flush.
        let mut warm = state.clone();
        let _ = warm.state_root(); // materialize the two-level cache
        let mut t = 0u64;
        group.bench_with_input(BenchmarkId::new("hierarchical_token_op", n), &n, |b, _| {
            b.iter(|| {
                t = (t + 1) % n as u64;
                let token = TokenId::new(t);
                let owner = warm.collection(coll_addr).unwrap().owner_of(token).unwrap();
                let to = if owner == Address::from_low_u64(1) {
                    Address::from_low_u64(2)
                } else {
                    Address::from_low_u64(1)
                };
                warm.nft_transfer(coll_addr, owner, to, token)
                    .unwrap()
                    .unwrap();
                black_box(warm.state_root())
            })
        });
    }
    group.finish();
}

fn bench_mempool(c: &mut Criterion) {
    let mut group = c.benchmark_group("mempool");
    let economy = Economy::build(100, 1, 2);
    let txs = economy.window(100, 2);
    group.bench_function("collect_100_of_100", |b| {
        b.iter(|| {
            let mut pool = BedrockMempool::new(Wei::from_gwei(1));
            pool.submit_all(txs.iter().copied());
            black_box(pool.collect(100))
        })
    });
    group.finish();
}

fn bench_calldata(c: &mut Criterion) {
    use parole_ovm::{NftTransaction, TxKind};
    use parole_primitives::{Address, AggregatorId, Hash32, TokenId};
    use parole_rollup::{calldata, Batch, StateCommitment};

    let batch_of = |txs: Vec<NftTransaction>| Batch {
        aggregator: AggregatorId::new(0),
        commitment: StateCommitment {
            pre_state_root: Hash32::ZERO,
            post_state_root: Hash32::ZERO,
            tx_root: Batch::compute_tx_root(&txs),
        },
        txs,
        receipts: vec![],
    };
    let economy = Economy::build(50, 1, 3);
    // The `signed` pipeline's block shape: random 20-byte senders and
    // recipients, and the marketplace mix over a few collections.
    let random = |i: u64| {
        let digest = keccak256(&i.to_be_bytes());
        Address::from_bytes(digest.as_bytes()[12..].try_into().unwrap())
    };
    let signed = (0..16u64)
        .map(|i| {
            let collection = random(1_000 + i % 5);
            let token = TokenId::new(37 * i % 500);
            let kind = match i % 5 {
                0 => TxKind::Mint { collection, token },
                1 => TxKind::List {
                    collection,
                    token,
                    price: Wei::from_milli_eth(10 + i),
                },
                2 => TxKind::Buy { collection, token },
                3 => TxKind::Transfer {
                    collection,
                    token,
                    to: random(2_000 + i),
                },
                _ => TxKind::CancelListing { collection, token },
            };
            NftTransaction::simple(random(i), kind)
        })
        .collect();
    let inputs = [
        ("50tx", batch_of(economy.window(50, 3))),
        ("signed_16tx", batch_of(signed)),
    ];
    let mut group = c.benchmark_group("calldata");
    for (name, batch) in &inputs {
        group.bench_function(format!("encode_compress_{name}"), |b| {
            b.iter(|| calldata::compress(&calldata::encode_batch(black_box(batch))))
        });
        group.bench_function(format!("posting_cost_{name}"), |b| {
            b.iter(|| calldata::batch_posting_cost(black_box(batch)))
        });
    }
    group.finish();
}

fn bench_reorder_env(c: &mut Criterion) {
    use parole::{ReorderEnv, RewardConfig};
    use parole_drl::Environment;

    let mut group = c.benchmark_group("reorder_env");
    // The GENTRANSEQ training hot loop is step() — swap two positions,
    // re-evaluate the window. The prefix-cached evaluator replays only the
    // diverged suffix and never copies state the window doesn't touch —
    // hence the rich background state.
    for n in [10usize, 20] {
        let economy = Economy::build(n, 1, 1).with_background(10_000, 16);
        let mut env = ReorderEnv::new(
            economy.state.clone(),
            economy.window(n, 1),
            economy.ifus.clone(),
            RewardConfig::default(),
        );
        env.reset();
        let actions = env.action_count();
        let mut a = 0usize;
        group.bench_with_input(BenchmarkId::new("step_cached", n), &n, |b, _| {
            b.iter(|| {
                a = (a + 7) % actions;
                black_box(env.step(a))
            })
        });
    }
    group.finish();
}

fn bench_dqn(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqn");
    // The paper-shaped network for a mempool of 50: 400 inputs, C(50,2)
    // outputs.
    let net = Mlp::new(&[400, 128, 128, 1225], 1);
    let obs = vec![0.3f64; 400];
    group.bench_function("forward_n50", |b| b.iter(|| net.forward(black_box(&obs))));
    let target = net.forward(&obs);
    // One sample's training pass: the forward that keeps the activations,
    // then the backward over them.
    let mut scratch = BatchScratch::default();
    group.bench_function("backward_n50", |b| {
        b.iter(|| {
            net.forward_batch(black_box(&obs), 1, &mut scratch);
            net.backward_batch(black_box(&target), 1, &scratch)
        })
    });
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_crypto, bench_ovm, bench_state_root, bench_nft_flush, bench_mempool, bench_calldata, bench_reorder_env, bench_dqn
);
// Hand-rolled `criterion_main!`: identical dispatch, plus the telemetry
// panic hook so an assertion inside a benchmark still dumps the armed
// metrics snapshot.
fn main() {
    parole_telemetry::install_panic_hook();
    kernels();
}
