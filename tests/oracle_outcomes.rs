//! Every oracle outcome the fuzz benchmark and the curated suite see,
//! pinned byte for byte.
//!
//! One FNV-1a-64 per case over what the oracle decided: the verdict
//! (kind, object, preemptions), the witness schedule, the deadlock count,
//! and the fuzz harness's `RepairReport` with its state count zeroed.
//! The populations are the first 256 generator seeds of each
//! fuzz-repair block (sc at bound 3, tso and pso at bound 4, reduced, as
//! `run_case` explores them) and the 18 Table 4 bugs at the default
//! bound. State, edge and prune counts are deliberately left out: a
//! cheaper explorer may move them, but never what it decides. On a
//! mismatch the assertion prints the whole recomputed table.

use waffle_repro::apps::all_apps;
use waffle_repro::fuzz::{
    derive_plan, explore, generate_case_for_model, run_case, synthesize_with_oracle, FuzzConfig,
    OracleConfig, OracleReport, OracleVerdict,
};
use waffle_repro::sim::{MemoryModel, Workload};

/// Generator seeds pinned per block.
const SEEDS: u64 = 256;

/// The fuzz-repair blocks: memory model and preemption bound.
const BLOCKS: [(MemoryModel, u32); 3] = [
    (MemoryModel::Sc, 3),
    (MemoryModel::Tso, 4),
    (MemoryModel::Pso, 4),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The decision part of an oracle report: verdict, witness, deadlocks.
fn decision(r: &OracleReport) -> String {
    format!("{:?}|{:?}|{}", r.verdict, r.witness, r.deadlocks)
}

/// The repair report's JSON with its certification state count zeroed.
fn repair_json(r: Option<&waffle_repro::analysis::RepairReport>) -> String {
    match r {
        Some(r) => {
            let mut r = r.clone();
            r.certified_states = 0;
            serde_json::to_string(&r).expect("repair report serializes")
        }
        None => "-".into(),
    }
}

/// One hash per generator seed of a block: the oracle's decision at the
/// block's bound, and the harness's repair outcome.
fn block_hashes(model: MemoryModel, bound: u32) -> Vec<u64> {
    let cfg = FuzzConfig {
        preemption_bound: bound,
        memory: model,
        repair: true,
        ..FuzzConfig::default()
    };
    let ocfg = OracleConfig {
        preemption_bound: bound,
        max_states: cfg.max_oracle_states,
        memory: model,
        reduce: cfg.reduction,
    };
    (0..SEEDS)
        .map(|seed| {
            let w: Workload = generate_case_for_model(seed, model).workload;
            let r = explore(&w, &ocfg);
            let case = run_case(seed, &cfg);
            let text = format!("{}|{}", decision(&r), repair_json(case.repair.as_ref()));
            fnv1a64(text.as_bytes())
        })
        .collect()
}

/// One hash per Table 4 bug: the decision at the default bound and the
/// repair synthesized from the bug's delay plan.
fn curated_hashes() -> Vec<(u32, u64)> {
    let cfg = OracleConfig::default();
    let mut out = Vec::new();
    for app in all_apps() {
        for bug in &app.bugs {
            let w = app.bug_workload(bug.id).expect("bug workload");
            let r = explore(w, &cfg);
            let repair = match r.verdict {
                OracleVerdict::Exposable { kind, obj, .. } => {
                    let plan = derive_plan(w, 1, MemoryModel::Sc);
                    Some(synthesize_with_oracle(w, &plan, kind, obj, &cfg))
                }
                _ => None,
            };
            let text = format!("{}|{}", decision(&r), repair_json(repair.as_ref()));
            out.push((bug.id, fnv1a64(text.as_bytes())));
        }
    }
    out
}

fn hex_rows(hashes: &[u64]) -> String {
    hashes
        .chunks(4)
        .map(|c| {
            let row: Vec<String> = c.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    {},\n", row.join(", "))
        })
        .collect()
}

fn check_block(model: MemoryModel, bound: u32, expected: &[u64]) {
    let actual = block_hashes(model, bound);
    let first = actual.iter().zip(expected).position(|(a, e)| a != e);
    assert!(
        actual.len() == expected.len() && first.is_none(),
        "{} b{bound} outcome hashes changed (first at seed {first:?}); recomputed table:\n{}",
        model.name(),
        hex_rows(&actual)
    );
}

#[test]
fn sc_block_outcomes_match_their_pinned_hashes() {
    check_block(BLOCKS[0].0, BLOCKS[0].1, &EXPECTED_SC_B3);
}

#[test]
fn tso_block_outcomes_match_their_pinned_hashes() {
    check_block(BLOCKS[1].0, BLOCKS[1].1, &EXPECTED_TSO_B4);
}

#[test]
fn pso_block_outcomes_match_their_pinned_hashes() {
    check_block(BLOCKS[2].0, BLOCKS[2].1, &EXPECTED_PSO_B4);
}

#[test]
fn curated_bug_outcomes_match_their_pinned_hashes() {
    let actual = curated_hashes();
    let table: String = actual
        .iter()
        .map(|(id, h)| format!("    ({id}, {h:#018x}),\n"))
        .collect();
    assert!(
        actual == EXPECTED_CURATED,
        "curated outcome hashes changed; recomputed table:\n{table}"
    );
}

/// `(bug id, fnv1a64(decision | repair))` at the default oracle config.
#[rustfmt::skip]
const EXPECTED_CURATED: &[(u32, u64)] = &[
    (10, 0xff583fa0e0f51ba9),
    (14, 0x5888744c5a39cf0f),
    (6, 0x692595114fd3ec82),
    (7, 0x54326411df9dd95b),
    (9, 0xb949150ef200ccaa),
    (18, 0xc2c5159f259a25c4),
    (8, 0x492c79a611362ac4),
    (16, 0xc1b074ea3e972962),
    (17, 0x7089eae63a664f7a),
    (11, 0xf2de988bf84be5df),
    (15, 0xbd54d1e60bb93ab2),
    (12, 0x7cd74a8a91be7d14),
    (3, 0xade6b5a8fd97cd3f),
    (4, 0x5a78a851c6de370c),
    (5, 0x94f5a99b81a23fb0),
    (13, 0x70c5d2c212e4a2c7),
    (1, 0x9345feb848d5ca12),
    (2, 0x9a88ae0c888545ac),
];

/// Seeds `0..256` of the sc block at bound 3.
#[rustfmt::skip]
const EXPECTED_SC_B3: [u64; SEEDS as usize] = [
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1515fc11dc88adde,
    0x169cb17592d217f4, 0x1bbdeea3aae9d9be, 0xabc7dabdc15f7dce, 0x3c85266dea2333fc,
    0xaf4dd780de193c31, 0x1bbdeea3aae9d9be, 0xffe1862bd89ae0ff, 0xaabe06fbf7ef9779,
    0xfd27a709cba4308e, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xfd59944b0b15a228, 0x124bb4e0ee5fbf70, 0x7aaa0685023a3a81,
    0x7cdfda2681dc59d2, 0x6762b59a107c8597, 0x77320fc5a1fe619f, 0x78d05873c5e331da,
    0x8024420b4d5d12a9, 0xefa32bee41a0ffa6, 0x491a1eff3ce3e1ec, 0x4c375615a1f953cd,
    0x589b98d0471bf0d8, 0xaad7dcdbd117abad, 0x1c3b0c6bfc8c4230, 0x9175f80ff753b911,
    0x22545260eb31f019, 0x1bbdeea3aae9d9be, 0x442e256e0a396b6e, 0x4227cf9e613eafbe,
    0x2fbac2f14f5e9ec3, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xe2af4ef4cbb482c6,
    0xab6d6408f8240b13, 0x1bbdeea3aae9d9be, 0x26077932a6e69484, 0x1ca205596c9dfe43,
    0x1bbdeea3aae9d9be, 0x21d0268906692b6f, 0x1bbdeea3aae9d9be, 0x5349d2849378e31f,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xf82d1f89cf26090f, 0x1a5b6bb63d9418ba, 0xe1dd6186da90a6c4,
    0x388b26c426cb5cf3, 0xffa1b265bbf263be, 0xf815a1917e16620f, 0x1bbdeea3aae9d9be,
    0xb12c61b7438859a4, 0xc309a65fa4e6eca1, 0xf204701d4061f236, 0xd514489c44997b4b,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x5fd7a1dd46cc9c14, 0x45b4f9712dd1851a,
    0x4999762093f5fc97, 0xf444375abd46ed58, 0xb9a3338c44d5364d, 0x1bbdeea3aae9d9be,
    0x99a60b6bce37d8a5, 0x28a724d84340a756, 0x01412bf249e9953d, 0xe4b79d64083812a7,
    0xab0c921ab1d544ea, 0xd5d3bcbce0547106, 0xe0811ab4f34798dc, 0xd5a4c75c8d22502b,
    0x1bbdeea3aae9d9be, 0x4d9760962ab4ca54, 0x1bbdeea3aae9d9be, 0x5cd8254b3dde3e4d,
    0x82503b621275b5de, 0x3a7f52e00904070f, 0x1bbdeea3aae9d9be, 0x4e0714135a52e8ad,
    0x141b649cabd7b7a3, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x4d221913076466a3,
    0x1f05e7242426d5a7, 0x1bbdeea3aae9d9be, 0x188bbb031ce85b85, 0x1bbdeea3aae9d9be,
    0xca3bb116e4f4e53a, 0x75934e3c4251bcf9, 0x9205a0585b679d53, 0x3c85483f3d1aed6b,
    0x0dc25252e4e1e877, 0x1bbdeea3aae9d9be, 0x7e6d11bd5f5ffc84, 0xfe580478d61d7437,
    0xd13cc089047a233f, 0x28d36324cc7973b9, 0xd7434c141a3af0bb, 0x1bbdeea3aae9d9be,
    0xb72807c8c4e81a7d, 0x64fdbbd0c093c876, 0x1bbdeea3aae9d9be, 0x23e44f738e4d4f8c,
    0x1fa91bdd20fbd18f, 0x8d0fc14ecddb1cb8, 0x1bbdeea3aae9d9be, 0x7feab16cf0d7b4f5,
    0x6cc658d6b276e0cc, 0xee5803ce49d32a9b, 0x26246e9f2d986292, 0xf91ca5511c820d65,
    0x3289a84f91dae0a2, 0x1bbdeea3aae9d9be, 0x6fabb7e1d94590bf, 0x1bbdeea3aae9d9be,
    0x36a4d9bc66f0af64, 0x96bc892fc2109845, 0x1bbdeea3aae9d9be, 0x18e34758349c6062,
    0x1bbdeea3aae9d9be, 0x35ec8d618b45bacb, 0x1b4dd1c0b7753dbe, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x2c9fce275e2b8e6d,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x5461f0a3d64ac823, 0x3cdcd6781044f40f,
    0x39f50814181f3da2, 0xbbef421b18c141a8, 0x63c50b0e69aa36c9, 0x2fbacef4f3d27ccc,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xabe922cf5e476d6a, 0xe949dd9029f851b0, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x6847464ab3c62a5e, 0xe8b078bd5ae1228d, 0x0650b90de965dcd9,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xb1f98c0a9228b96e, 0x516ddbbb35063ac7, 0x72cff48c8580a9e3, 0x40fa089a4bd8fd39,
    0x1bbdeea3aae9d9be, 0x1741e0036f31e5eb, 0x164bf427f6c6219c, 0x77d29fd4d060d844,
    0xba4984fcac0c07f4, 0x04f6acb81aaaf9e7, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x9063461111b5c80e, 0xde392ac5cc6fc7d4, 0xe9eee08a29321728, 0xfa98bf198639690c,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x6c1f344094af81a9, 0xb8ee7e9e37e46f99,
    0xe4e48fce86cbe8b2, 0x8a605a7985f8d724, 0x0796b318b4ad77cb, 0x073d8bac28ccb7c8,
    0xa55f553b61869745, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x06b54624c1cd0863, 0x1bbdeea3aae9d9be, 0x119b0f964be491cc, 0x1bbdeea3aae9d9be,
    0x8f89d0db71077692, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xe69d60cb89561645, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xd34025a4cbbd8271, 0x1eaaabb6988eee21,
    0x975230f7bb678c9b, 0xf9d3ae12be0169fb, 0x93845b61ff1e64bc, 0xed614b281f4663fd,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xf206100d192cfe02, 0x2cd10200509172a6,
    0x21338f00a0e74f9e, 0x232d3bf2c4b4cf4e, 0x499cca8d71870fed, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xbd27e9fc00b734bc,
    0x1bbdeea3aae9d9be, 0x201b1ecfdc3aba96, 0xb6abd21c732fd8c3, 0x340b5dfbc33c5406,
    0x58af9021679b9c18, 0xb0c1722b8e3436c6, 0x293fea5db6eda23f, 0x1f703bbf92429d47,
    0xf9270bc93ba4dd14, 0xebae24813401e359, 0x1bbdeea3aae9d9be, 0xbab0f11fe86168e9,
    0xa8abb025219e807e, 0x2fe3870626e5c8ea, 0x1bbdeea3aae9d9be, 0x2e375673c511339d,
    0x1bbdeea3aae9d9be, 0xd9ee447265105e14, 0x49970b0e712a6c95, 0x77d8788e521eb84b,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x86eace10e27970f1, 0x1bbdeea3aae9d9be,
    0x9fe27c82172ae9ba, 0x2f6971cd37e4b0fd, 0xeae79dd2be6b1e01, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xe3d068aadbacbc84, 0x4b53e6526624a9ae, 0x0f006089059c774e,
];

/// Seeds `0..256` of the tso block at bound 4.
#[rustfmt::skip]
const EXPECTED_TSO_B4: [u64; SEEDS as usize] = [
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x408e6e8e22e44778, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x28d58c3938bf94d2, 0x133b60483d2997ed, 0x1bbdeea3aae9d9be, 0xc68b008ca7946d0c,
    0x4cba263740ae25a1, 0x7e8168ba390d4814, 0x1bbdeea3aae9d9be, 0x23453ec44f3d77c0,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x9d6e7eeebf6a27f4,
    0x560d544c8f467d08, 0x28432868a3d7ffe7, 0x256f5a62a06720e8, 0x1bbdeea3aae9d9be,
    0xab3d0354d1183a62, 0xfa4a9b687ad09c53, 0x1a50bf3c173de83a, 0x603e53e6d5a46aa9,
    0x70a1f46514704e00, 0xb69212d0efc10dff, 0x86c66ccc394c3299, 0xc00c01b5149d2c6a,
    0x6ec6fea7cd1122c3, 0xd8798b7aad1c00a4, 0xed0e4d7d10e2898d, 0x5dcfbadb32d3f1b8,
    0x5661715970ffe8df, 0xf76eceb03bf33c38, 0x1bbdeea3aae9d9be, 0xf405a176739b3834,
    0x1cf9ede69d740398, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xf26873c28485423f,
    0x7dc043dc3fb758ca, 0xf70787fb36fba1b5, 0x1bbdeea3aae9d9be, 0x3fc909f020004b23,
    0x1f9234872dd40390, 0x1bbdeea3aae9d9be, 0x71e9f787c2bff58f, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xad215d03b97a8d29, 0x2e3079f8ef88a6ac, 0x3906b4d4a934f4c7, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xbbaa07c4b0e74543, 0x0cef0ad1f8734eea, 0xd3a975e91d225519,
    0x4451d7cd1fc95eb8, 0xe1433d0bf6bd7cd7, 0xd9bab6f257b09138, 0x39f15699f4b8ac0d,
    0xd5b1a0cf5f3a3fca, 0xae035f5e8e74573b, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x42634956457341c6, 0x77481b41ef0a47ed, 0xbd460c6b7e9f7bf4,
    0x61ff0efe997f7bfb, 0x86261ecf899fccec, 0xf9d5bd8dd9f0037d, 0xa49b2987d4c4f778,
    0xaa1b76101465462c, 0x39e363af55761019, 0x8b96825dc945de24, 0x21e3f58ae93b0043,
    0x1d455290ea205fe8, 0x1bbdeea3aae9d9be, 0xdf4448e757b1f91e, 0x1bbdeea3aae9d9be,
    0x7c9c5a9fe59707c2, 0x1bbdeea3aae9d9be, 0xc6dc6142c70ee2f3, 0x3dddcfc13b50bc72,
    0xcd606f5ea62875d5, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x352324359f2d5628,
    0x1bbdeea3aae9d9be, 0x55a5b3097c8d30b8, 0x1bbdeea3aae9d9be, 0xec600c95c1f387ec,
    0x72147d09725da221, 0xec846de1122489d2, 0xdf0127e20d5a2b6b, 0xebe5575ed943e98c,
    0x59f6dee32197a755, 0x5997effef1797616, 0x1bbdeea3aae9d9be, 0xacd3d57f599b78f6,
    0x1bbdeea3aae9d9be, 0x2a626b6a6615ed7a, 0xe045e357a717eb66, 0xaeb6410bec1a868f,
    0xc892c9aaa8bb8110, 0x1bbdeea3aae9d9be, 0xf04fa8f7f4f40a2a, 0x38a3b9b649b5c11b,
    0xa36cf9f4d8d16514, 0x1bbdeea3aae9d9be, 0xbf4752587c884f4e, 0x3f2c4b2082d1f2f7,
    0x85fcca4ec06aa473, 0x6f55ab5081163054, 0x2e5b4c1533fa92f5, 0xb556fbff93e6695a,
    0x1bbdeea3aae9d9be, 0xeceee6711b4f0b0e, 0x1bbdeea3aae9d9be, 0x5175b5a9ed0eb53e,
    0x802caa2b7bec43db, 0x1bbdeea3aae9d9be, 0x324961a42a22cb6a, 0xf903ccbb4ed1d199,
    0x1bbdeea3aae9d9be, 0xe1045e96e296c1c3, 0x80569fddeb27be88, 0x1bbdeea3aae9d9be,
    0xbabe743eb6de26be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xba83f7736f24c8a1, 0x435067ca54cab49e, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x76610482210ff355, 0x512b21aff6f7587c, 0x626d3d77822c9c83, 0xe6de64e4b63839f2,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xbef786265633c4a1, 0x28bed1967e781876, 0x1bbdeea3aae9d9be,
    0x2ac27981537dbe20, 0xa6d9e800056dc9d5, 0x4c1390a695b8f6e2, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xb48eb5cd6e92609b, 0xade62eb1c7ecd5dc, 0x7b551bfa9077b80d, 0x9529ff6b85c0afe2,
    0x175404fd24495f3f, 0xdca061725f70bfd8, 0x2b1e9527792b5f76, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x06ae758fdba1fbb2, 0x66b371af4fbdfb81,
    0xad317f34bca10b1a, 0x6fcb80bb357e9a4b, 0xbaaf2c5b4bd16c48, 0x9b753466cce787b1,
    0x45e6d5d832a7f419, 0x53c9ee7ec92eba1c, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x3984da0695b53541, 0x75b6dcf19b9e8b0e, 0xb97c606cba94957f, 0xf518ee42d195cc0e,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x22778c1567750baf,
    0x1bbdeea3aae9d9be, 0xaf2b17deed88525d, 0x1bbdeea3aae9d9be, 0x753cc8f2c63ed653,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x75b27bdce91ccf7f,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x9e9be40f55be1cc5,
    0x5cc6e562c18bccf8, 0xeda99afe7224948f, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x597c65341d1a2f3a, 0xca59aa0ba3841a7b, 0xed54f9b7ec7d8749, 0x4dfba28924a587b6,
    0x4a1647ba39dd4adf, 0x6518b2aa437b56e0, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x46c2d583d8cd1a2c, 0xbc0a71975dee3bbd, 0xfdc5624f4de5cba8,
    0x11833e975b71ee48, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xe651fec78918328c, 0xc94e2ca31e2cbeb9, 0x4888abafe48096c2, 0x1bbdeea3aae9d9be,
    0x0e4b59d3e10f4da6, 0x799e87f704ed45e9, 0x4264a212e2a7d1a7, 0xc9c9acbd0c1bfdc8,
    0x074373c789c2b301, 0x1bbdeea3aae9d9be, 0x9e1164ff4261ba63, 0x5dbda455c3e31cd2,
    0x99b4dd069c287569, 0x1bbdeea3aae9d9be, 0x0745f294b7b3f7b7, 0xb304f1aadb950ce6,
    0x7ce6a3a02845db48, 0xf23d1b220f0d41bf, 0x1cce954627fc0318, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x222668e81d851ae3, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x8b5af67d92d75837, 0x22b0e7f830e17d45, 0x2e0521587a10a62c,
    0xc9c375fcb4c63503, 0x26fca6cb807cd962, 0x68b47f789bcea6d1, 0x1bbdeea3aae9d9be,
];

/// Seeds `0..256` of the pso block at bound 4.
#[rustfmt::skip]
const EXPECTED_PSO_B4: [u64; SEEDS as usize] = [
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x02dc4c1122d72076, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x2c6f42535beb84f7, 0x326475df0f05e871, 0x1bbdeea3aae9d9be, 0xb1331fd40d56ef0b,
    0xbcfec27c15137b0a, 0xdf846715ff96b402, 0x1bbdeea3aae9d9be, 0x6b377cbe466a5dbf,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x178446dbee6ed473,
    0xcf0be5959cdb0417, 0x65edac0608b47f50, 0x249b20cc3ef8b1e6, 0x1bbdeea3aae9d9be,
    0x4cbbf8a2e835f1bc, 0x912d29f28fe3976c, 0x189a6aa324288bb9, 0x90f36e9aafdea162,
    0x5ac6fb72372a9a8f, 0x6f2108f18bf69a48, 0x7cc97fb6c9e222a6, 0xe80fd8f29776af7d,
    0xde36042aba601760, 0xb9e90baeec4ff5e7, 0x174f2734d50e3372, 0xa5b7a20d484e032e,
    0xa06dae02caed37cf, 0xc3cd16af279b05d3, 0x1bbdeea3aae9d9be, 0x99da79060067f7a2,
    0x87843604c1c00c1e, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xbec3bb72ca42ffff,
    0x158c1403c3ab174d, 0x80c4e28dfa2f78c1, 0x1bbdeea3aae9d9be, 0xce117b67c8fe5fb0,
    0xc67e87b26b77b086, 0x1bbdeea3aae9d9be, 0xaf426010b4f3186f, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x2e620d9c0e4225ba, 0x7a97a9feb0da1f7a, 0xe4a3785459c0a777, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xd7b62389f7d2aff4, 0x39d9e767d5715501, 0x09e1cb98f8e99d8a,
    0xb81a85db2a40803f, 0xad08800e5ce1b538, 0x997d74446967fd76, 0x7d4f33c16cea965e,
    0x4f75527c704574e4, 0xbfa1edbf224fbb9c, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0xbeb143c4f112a520, 0x1cffd9db017df3c9, 0x9574dc9a5a5af432,
    0x7feb53b4e6206693, 0xa7aa048f1b00bd0f, 0xddd677b793b4c3e2, 0xe4397983c0aaab7e,
    0x91a944a71f5c675a, 0xc9ac88d3adb84526, 0x06cc14cbd0261867, 0x2b190d479e3639e0,
    0x58d498f06477e0ae, 0x1bbdeea3aae9d9be, 0xa25130bd2bd99408, 0x1bbdeea3aae9d9be,
    0xc7523f039b2be595, 0x1bbdeea3aae9d9be, 0xf004cfde59c26ecc, 0x8df5d9a6e7ce3f34,
    0x33e1d97116595641, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xb3fab326a3c76c77,
    0x1bbdeea3aae9d9be, 0x3aa12ce7dde9e99e, 0x1bbdeea3aae9d9be, 0xac538eeed611d27b,
    0xa059103451ec50b8, 0xab6b16011f4b1bbf, 0x5c9e5d4a7718565b, 0xcbc5af18b493bd35,
    0xcb06b3afecdd4b74, 0xf166b916e637ad0b, 0x1bbdeea3aae9d9be, 0xefd385121cb3dd08,
    0x1bbdeea3aae9d9be, 0x380f4b760849e887, 0x0c339819e1ecee20, 0xf998670fd3b14cd2,
    0x253a6c044bfcd866, 0x1bbdeea3aae9d9be, 0x4d5b43daf53a183c, 0xcd6da809d6faaf93,
    0xe2f730ef4b353d32, 0x1bbdeea3aae9d9be, 0x86beb182719d1658, 0x7d7ab2b1c813c54a,
    0x788ea4c520b5c76a, 0x9d93cddc70e07c61, 0x5dd7daa138ed6359, 0x9cd7d23d987e7feb,
    0x1bbdeea3aae9d9be, 0xcc325b6bc6bebc70, 0x1bbdeea3aae9d9be, 0xe45dc1bf92b99e1f,
    0x63acc518236ab8bb, 0x1bbdeea3aae9d9be, 0xf01f3ce489d1589b, 0xdfb4237500ba0744,
    0x1bbdeea3aae9d9be, 0x153afbfc6e771b9a, 0xaa27ebb1df15b7c6, 0x1bbdeea3aae9d9be,
    0xc17ade6f9c400400, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xcd4fc399c9825fbd, 0xa33c33c7a5fb361b, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1d9f25130e821a49, 0x961427d2675f1ab2, 0x808a9eecf3248d13, 0x00783abe1163f5bc,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x537607176e162e38, 0x7f4f524ee2e899f0, 0x1bbdeea3aae9d9be,
    0x9a1cbf7c766c23f6, 0x7e23aa93090728f4, 0x50149db47d499b64, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xdd9b9f54990f33fb, 0x27fbe7f2a4876119, 0x73720747c5591ab1, 0x779e2583d7268463,
    0xe542c38c66c4cdf7, 0xa0ca6bbe60653ce5, 0xad399bd4e15a9167, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xb71da6d51ca5a153, 0xb7cd4e792366e6fc,
    0xdb782dfbd8a88834, 0x52c8f15e58705fcb, 0xc71dd2ea787bd706, 0xae5dc2881ae9ef5d,
    0x5b281dc785b54030, 0x465da01444ee9582, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xca4fce4690515e0d, 0x116437bd9ed2c963, 0x89f3f5a3a67cd6b7, 0x326c4931ff127770,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x62fea22bde211c6f,
    0x1bbdeea3aae9d9be, 0x91f8ef0070c625d4, 0x1bbdeea3aae9d9be, 0x90b89637b539117b,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0xa465c99491c513f2,
    0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x8a651bbd9f26bb89,
    0xc7e2f57cf79d1629, 0x9b4303412212db67, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0xe63c4432e9d22ad4, 0xc4a917bba456995e, 0x89d46d2b6689fded, 0x8b35d09f6ade4503,
    0x25305bb1cb20c6e2, 0xacd757ba3f6ab139, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x3cb762b04c093ded, 0x33bd7749431b6ec4, 0x6ec9704fabac3c6e,
    0x3a58934a264a7e0e, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x0fbc052e44050b3a, 0xae9248f8b07c1584, 0x48ee52fd1ebe5664, 0x1bbdeea3aae9d9be,
    0x259decc08dbaac57, 0x100c8cac159c3b8d, 0x90956f8954a2ccfe, 0x4de02a81875f4355,
    0x9afd34fca1e00355, 0x1bbdeea3aae9d9be, 0x53a153ed41ae6c2b, 0xa7c6a8515c816994,
    0x5aa99dd64200a994, 0x1bbdeea3aae9d9be, 0x5668e296499ccd27, 0xb82a44459f8b86a0,
    0x75619417e98ee6f1, 0xfd48e644b6740c17, 0xae5e02f8d4526956, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x2535e43769352783, 0x1bbdeea3aae9d9be, 0x1bbdeea3aae9d9be,
    0x1bbdeea3aae9d9be, 0x8903fc2150c3a28f, 0x1b33defa0b343a81, 0xeb3bc32b2eac830a,
    0x09018d6282339046, 0xb9101b1c2d959574, 0xb9cf1684f54c0735, 0x1bbdeea3aae9d9be,
];
