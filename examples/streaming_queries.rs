//! General metric spaces and streaming queries: nearest-neighbor search
//! over *strings* under edit distance, served online.
//!
//! The paper stresses that the RBC is defined for arbitrary metrics — "the
//! edit distance on strings and the shortest path distance on the nodes of
//! a graph" are its examples (§6). This example builds both RBC variants
//! over a synthetic dictionary of strings with Levenshtein distance and
//! serves a *concurrent stream* of misspelled lookups — the classic
//! spell-correction workload — through the `rbc-serve` engine: four
//! producer threads submit typos one at a time, and the scheduler
//! coalesces them into micro-batches so the edit-distance kernels run over
//! query matrices rather than lone strings. It also demonstrates the exact
//! structure's ε-range queries.
//!
//! The quality and work figures (correction rate, agreement, evaluations
//! per query) come from one offline pass over the same typo stream, in
//! fixed batches of 32 on a one-thread pool, so two runs print them
//! identically. How the engines batched the stream and how long each
//! lookup waited depend on thread scheduling; those lines come last,
//! under a line that says so.
//!
//! Run with:
//! ```text
//! cargo run --release --example streaming_queries
//! ```

use std::time::Duration;

use rbc::core::{ExactRbc, OneShotRbc, RbcConfig, RbcParams};
use rbc::metric::{Dataset, Levenshtein, QueryBatch, StringSet};
use rbc::serve::{Engine, ServeConfig};

/// Deterministic pseudo-random word generator (no external corpus needed).
fn synth_word(seed: u64, min_len: usize, max_len: usize) -> String {
    let consonants = b"bcdfghklmnprstvz";
    let vowels = b"aeiou";
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let len = min_len + next() % (max_len - min_len + 1);
    let mut word = String::with_capacity(len);
    for i in 0..len {
        let set: &[u8] = if i % 2 == 0 { consonants } else { vowels };
        word.push(set[next() % set.len()] as char);
    }
    word
}

/// Corrupts a word with one random edit, producing a "typo" query.
fn corrupt(word: &str, seed: u64) -> String {
    let chars: Vec<char> = word.chars().collect();
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    let mut out = chars.clone();
    match next() % 3 {
        0 if out.len() > 1 => {
            let i = next() % out.len();
            out.remove(i);
        }
        1 => {
            let i = next() % out.len();
            out[i] = (b'a' + (next() % 26) as u8) as char;
        }
        _ => {
            let i = next() % (out.len() + 1);
            out.insert(i, (b'a' + (next() % 26) as u8) as char);
        }
    }
    out.into_iter().collect()
}

#[path = "util/scale.rs"]
mod util;
use util::scaled;

fn main() {
    let dictionary_size = scaled(20_000);
    let producers = 4;
    let stream_per_producer = 100;
    let stream_length = producers * stream_per_producer;

    println!("building a synthetic dictionary of {dictionary_size} words ...");
    let dictionary = StringSet::new((0..dictionary_size).map(|i| synth_word(i as u64, 4, 12)));

    let params = RbcParams::standard(dictionary.len(), 21);
    println!(
        "building exact and one-shot RBC indexes under edit distance ({} representatives) ...",
        params.n_reps
    );
    let exact = ExactRbc::build(
        dictionary.clone(),
        Levenshtein,
        params.clone(),
        RbcConfig::default(),
    );
    let one_shot = OneShotRbc::build(
        dictionary.clone(),
        Levenshtein,
        params,
        RbcConfig::default(),
    );

    // The typo stream, in the order the producers below submit it.
    let typo_of = |p: usize, i: usize| {
        let original = ((p * stream_per_producer + i) * 37) % dictionary.len();
        let typo = corrupt(dictionary.get(original), 0xABCD + (p * 1000 + i) as u64);
        (original, typo)
    };
    let stream: Vec<(usize, String)> = (0..producers)
        .flat_map(|p| (0..stream_per_producer).map(move |i| (p, i)))
        .map(|(p, i)| typo_of(p, i))
        .collect();

    // Offline, in fixed batches of 32 on one thread: the numbers a rerun
    // reproduces exactly.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    let (mut hits, mut agrees, mut exact_evals, mut one_shot_evals) = (0, 0, 0, 0);
    let mut answers = Vec::with_capacity(stream_length);
    one_thread.install(|| {
        for chunk in stream.chunks(32) {
            let typos: Vec<String> = chunk.iter().map(|(_, typo)| typo.clone()).collect();
            let batch = QueryBatch::new(&typos);
            let (best, exact_stats) = exact.query_batch(&batch);
            let (fast, one_shot_stats) = one_shot.query_batch(&batch);
            exact_evals += exact_stats.total_distance_evals();
            one_shot_evals += one_shot_stats.total_distance_evals();
            for (((original, _), &best), &fast) in chunk.iter().zip(&best).zip(&fast) {
                hits += usize::from(best.index == *original || best.dist <= 1.0);
                agrees += usize::from(fast.index == best.index);
                answers.push((best, fast));
            }
        }
    });

    // Serve both indexes online: typos arrive one at a time from several
    // concurrent producers, and each engine coalesces them into
    // micro-batches of edit-distance work.
    let policy = ServeConfig::default()
        .with_max_batch(32)
        .with_linger(Duration::from_millis(1));
    let exact_engine = Engine::start(exact, policy).expect("valid serving configuration");
    let one_shot_engine = Engine::start(one_shot, policy).expect("valid serving configuration");

    println!(
        "streaming {stream_length} misspelled lookups from {producers} concurrent producers ..."
    );
    let served_as_offline: usize = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for p in 0..producers {
            let exact_handle = exact_engine.handle();
            let one_shot_handle = one_shot_engine.handle();
            let range = p * stream_per_producer..(p + 1) * stream_per_producer;
            let (stream, answers) = (&stream[range.clone()], &answers[range]);
            joins.push(scope.spawn(move || {
                let mut same = 0usize;
                for ((_, typo), &offline) in stream.iter().zip(answers) {
                    let exact_ticket = exact_handle.submit(typo.clone(), 1).expect("submit");
                    let one_shot_ticket = one_shot_handle.submit(typo.clone(), 1).expect("submit");
                    let best = exact_ticket.wait().expect("served").neighbors[0];
                    let fast = one_shot_ticket.wait().expect("served").neighbors[0];
                    same += usize::from((best, fast) == offline);
                }
                same
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("producer panicked"))
            .sum()
    });

    // ε-range search: every dictionary word within edit distance 2 of a
    // query (what a spell-checker shows as suggestions). Range queries are
    // not k-NN traffic, so they bypass the engine — but the engine happily
    // lends out its index, so no second build is needed.
    let query = corrupt(dictionary.get(5), 0xF00D);
    let (suggestions, _) = exact_engine.index().query_range(query.as_str(), 2.0);

    let exact_stats = exact_engine.shutdown();
    let one_shot_stats = one_shot_engine.shutdown();

    println!("\n{stream_length} lookups per index, offline in batches of 32 on one thread:");
    println!(
        "  exact RBC      : {:.1}% corrected within 1 edit, {:.0} edit-distance evals/query (dictionary = {})",
        100.0 * hits as f64 / stream_length as f64,
        exact_evals as f64 / stream_length as f64,
        dictionary.len()
    );
    println!(
        "  one-shot RBC   : agrees with exact on {:.1}% of queries, {:.0} evals/query",
        100.0 * agrees as f64 / stream_length as f64,
        one_shot_evals as f64 / stream_length as f64
    );
    println!("  served answers equal to the offline pass: {served_as_offline} / {stream_length}");

    println!("\nsuggestions within edit distance 2 of {query:?}:");
    for s in suggestions.iter().take(8) {
        println!("  {:<14} (distance {})", dictionary.get(s.index), s.dist);
    }
    if suggestions.is_empty() {
        println!("  (none)");
    }

    println!("\nserving (these figures vary with thread scheduling from run to run):");
    for (name, stats) in [("exact", &exact_stats), ("one-shot", &one_shot_stats)] {
        println!(
            "  {name:<9} serve : mean batch {:.1} over {} batches, latency p50 {} us / p95 {} us / p99 {} us",
            stats.mean_batch_size,
            stats.batches,
            stats.latency_p50_us,
            stats.latency_p95_us,
            stats.latency_p99_us
        );
    }
}
