//! Canary for the host's libm.
//!
//! Every output of the simulator depends on the bits `exp`, `ln` and
//! `powf` return, and those are the host libm's: implementations
//! round differently on about 0.07 % of inputs, and glibc picks its `exp`
//! variant by CPU feature. This test pins the bits on a few hundred inputs
//! drawn from the ranges the simulator evaluates, so a host whose libm
//! disagrees fails here, naming the function and the input, instead of
//! failing the golden gates with a drifted number. The `cos` pins stay
//! from when a Box–Muller draw used it; no code calls `cos` now.
//!
//! The inputs are built with `+ − × ÷` only, which IEEE 754 rounds the
//! same way everywhere.

use manytest_power::TechNode;
use std::hint::black_box;

/// Every canary input in pin order, by the function it feeds.
fn inputs() -> Vec<(&'static str, f64)> {
    let mut v = Vec::new();
    // The Arrhenius exponent `Ea/k · (1/T_ref − 1/T)` for 300–420 K, with
    // the aging model's default Ea = 0.6 eV and T_ref = 333.15 K.
    for i in 0..64 {
        let t = 300.0 + 120.0 * f64::from(i) / 63.0;
        v.push(("exp", 0.6 / 8.617e-5 * (1.0 / 333.15 - 1.0 / t)));
    }
    // A grid of small negative exponents `−dt/τ` (dt 0.1–100 ms, τ 50 ms
    // to 2 s), denser near zero: the Arrhenius exponent of a tile between
    // 304 K and the 333 K reference, idle tiles at 318 K included.
    for dt in [1e-4, 2.5e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 0.1] {
        for tau in [0.05, 0.1, 0.2, 0.5, 1.0, 2.0] {
            v.push(("exp", -dt / tau));
        }
    }
    // The task-graph generator's log-uniform draws: ln 8e3 to ln 3e7.
    for i in 0..64 {
        v.push(("exp", 8.987 + (17.217 - 8.987) * f64::from(i) / 63.0));
    }
    // `ln u` for the uniform draws behind Poisson arrivals, then the
    // generator's bounds.
    for i in 0..64 {
        v.push(("ln", (f64::from(i) + 0.5) / 64.0));
    }
    for x in [
        f64::EPSILON / 2.0,
        1.0 - f64::EPSILON / 2.0,
        8e3,
        5.12e5,
        2e6,
        3e7,
    ] {
        v.push(("ln", x));
    }
    // `cos(τ·u)`, pinned when a Box–Muller draw called it.
    for i in 0..64 {
        v.push(("cos", std::f64::consts::TAU * (f64::from(i) / 64.0)));
    }
    // The DVFS ladder's `(V − V_th)^1.3` over every node's voltage range.
    for node in [TechNode::N45, TechNode::N32, TechNode::N22, TechNode::N16] {
        let p = node.params();
        for i in 0..16 {
            let voltage = p.v_min + f64::from(i) / 15.0 * (p.v_nominal - p.v_min);
            v.push(("powf", voltage - p.v_threshold));
        }
    }
    v
}

fn eval(function: &str, x: f64) -> f64 {
    let x = black_box(x);
    match function {
        "exp" => x.exp(),
        "ln" => x.ln(),
        "cos" => x.cos(),
        _ => x.powf(1.3),
    }
}

/// The outputs' bits on the host the golden gates were pinned on
/// (glibc 2.36, x86-64 with FMA).
#[rustfmt::skip]
const PINS: [u64; 374] = [
    0x3fb96c736b6c615c, 0x3fbd6ed4b0287bb4, 0x3fc10188b68b8785, 0x3fc39dc8280fb08b,
    0x3fc6965e4422c581, 0x3fc9f69ab44aa0a4, 0x3fcdcb00c431771f, 0x3fd110b163a85a3d,
    0x3fd3847fb5c0096a, 0x3fd64950881ae1f2, 0x3fd9685f9d5778b6, 0x3fdcebd11fcca104,
    0x3fe06f624ecb8324, 0x3fe2a6b49c3f787a, 0x3fe522898b3bab33, 0x3fe7ea290fc9de51,
    0x3feb05850b34a229, 0x3fee7d460bf01790, 0x3ff12d6c63e194c0, 0x3ff3543e2b5dfa15,
    0x3ff5b8a89abcba7a, 0x3ff860b48aa871d7, 0x3ffb52ebc0670a9a, 0x3ffe9661ad820fd6,
    0x4001195e50057ede, 0x4003181fb3538802, 0x40054be9b5c205c8, 0x4007b989a4a5ea0d,
    0x400a662aee8faaa5, 0x400d575cec492db1, 0x4010498c75a458d3, 0x40120fe43d8215a6,
    0x40140225ff43582c, 0x40162400c1cf7532, 0x40187965f079148f, 0x401b068d0e19c3cb,
    0x401dcff78cd8e1e2, 0x40206d3a659835f1, 0x402215931b5d8a33, 0x4023e3c1caa7d05d,
    0x4025daafba72e27f, 0x4027fd75e15c543b, 0x402a4f5f4509736d, 0x402cd3eb6d93a123,
    0x402f8ed0ed282fe7, 0x403141fffe02319b, 0x4032dbd29478c151, 0x403497160f301776,
    0x403676213e1ea1e9, 0x40387b6d634ad24b, 0x403aa997b48ca100, 0x403d0362e7c44810,
    0x403f8bb8c9893e90, 0x404122d5ef28ee07, 0x40429a3c8708b85d, 0x40442dc4ad23fa50,
    0x4045df39cf3de536, 0x4047b07f2d89b1de, 0x4049a390c540f7d0, 0x404bba84405bc32a,
    0x404df789ea615235, 0x40502e76d5238686, 0x4051768c00a8faae, 0x4052d5478776c058,
    0x3fefefa1e333cd77, 0x3feff7cfe56f1a9e, 0x3feffbe7afa4452e, 0x3feffe5c9c8de6c4,
    0x3fefff2e4b97d31d, 0x3fefff9725201f4a, 0x3fefd7246927d28b, 0x3fefeb8bab0b5bf7,
    0x3feff5c4329d9dfd, 0x3feffbe7afa4452e, 0x3feffdf3c70c3dcd, 0x3feffef9df54835a,
    0x3fefae7cfd2b9cfe, 0x3fefd7246927d28b, 0x3fefeb8bab0b5bf7, 0x3feff7cfe56f1a9e,
    0x3feffbe7afa4452e, 0x3feffdf3c70c3dcd, 0x3fef5dc99badec5b, 0x3fefae7cfd2b9cfe,
    0x3fefd7246927d28b, 0x3fefefa1e333cd77, 0x3feff7cfe56f1a9e, 0x3feffbe7afa4452e,
    0x3feebec97e700b8d, 0x3fef5dc99badec5b, 0x3fefae7cfd2b9cfe, 0x3fefdf4c2599306a,
    0x3fefefa1e333cd77, 0x3feff7cfe56f1a9e, 0x3fecf46d99d52b3b, 0x3fee7078b0a726a6,
    0x3fef35bd21f40add, 0x3fefae7cfd2b9cfe, 0x3fefd7246927d28b, 0x3fefeb8bab0b5bf7,
    0x3fea330ad6166159, 0x3fecf46d99d52b3b, 0x3fee7078b0a726a6, 0x3fef5dc99badec5b,
    0x3fefae7cfd2b9cfe, 0x3fefd7246927d28b, 0x3fc152aaa3bf81cc, 0x3fd78b56362cef38,
    0x3fe368b2fc6f960a, 0x3fea330ad6166159, 0x3fecf46d99d52b3a, 0x3fee7078b0a726a6,
    0x40bf3e6cf37171b7, 0x40c1cd4f456f7fc9, 0x40c4494a3498eeda, 0x40c71e05adc8ae3a,
    0x40ca57e46179c6d6, 0x40ce050379c27b3d, 0x40d11abc2cecf16b, 0x40d37dcb7dca6fbc,
    0x40d636210f598963, 0x40d94fa354652d8b, 0x40dcd7e1e2ca0393, 0x40e06f2863ca2210,
    0x40e2ba461152432c, 0x40e5575298d20d25, 0x40e851bd0dac3b9f, 0x40ebb68cfdb76c1d,
    0x40ef949b72398f8a, 0x40f1fe69f2ae7fc5, 0x40f4813f24286170, 0x40f75dc9aef7369c,
    0x40faa08e6d78e092, 0x40fe57d17827449d, 0x410149ea47b85404, 0x4103b38f1da61e75,
    0x410673656bda55a0, 0x41099574784f6241, 0x410d277140bf2044, 0x41109c7d3933773c,
    0x4112edee60148d9a, 0x41159230610212eb, 0x411894d1d9488ce4, 0x411c02fe4762cac6,
    0x411febb7a931f61f, 0x4122300c12504cbb, 0x4124b9ce6cf9080a, 0x41279e3d938b0cd9,
    0x412aea00e8835662, 0x412eab83de2242d4, 0x4131799a86364023, 0x4133e9e70a774824,
    0x4136b152c7637d89, 0x4139dc0630afba28, 0x413d77dc1320afd3, 0x4140ca4f18dc4ae9,
    0x414322252c2bcd2f, 0x4145cdb089001d48, 0x4148d89fad8e4254, 0x414c50426c17df77,
    0x415021e21408cd36, 0x4152623719f1287d, 0x4154f2f9b8ca75ba, 0x4157df6340adb8f7,
    0x415b343dfb773862, 0x415f001d21b8d705, 0x4161a9ce4f5f38fe, 0x416420d4dd4ebfdf,
    0x4166efeaf41bcbd8, 0x416a235a90ba5ee0, 0x416dc924b7443c00, 0x4170f89f5bac3bb0,
    0x417356ebfea16df4, 0x417609d4d0aeecb4, 0x41791d2888e0eecb, 0x417c9e5bb1740047,
    0xc013687a9f1af2b1, 0xc00e070000df63dd, 0xc009f0d4423f1ec9, 0xc0073fbbe71cb837,
    0xc0053d0ac388e258, 0xc003a21186b6ae17, 0xc0024bf113045912, 0xc00126df04e89d44,
    0xc00026897c3b65e9, 0xbffe857e7062646c, 0xbffceb8d538c6d63, 0xbffb76ee80c862e5,
    0xbffa21668c90b05e, 0xbff8e62b0c64c1a5, 0xbff7c178e4cfce88, 0xbff6b04deb497411,
    0xbff5b03892c05923, 0xbff4bf35d64be33a, 0xbff3db989ff63b4b, 0xbff303f7ab5baf19,
    0xbff2371ff14e722a, 0xbff1740a5041f2a3, 0xbff0b9d38f24377d, 0xbff007b61d49e959,
    0xbfeeba0a400e2c2d, 0xbfed7250fb93918e, 0xbfec3733584ea2e0, 0xbfeb07c22aff9df5,
    0xbfe9e327eb6ac2c3, 0xbfe8c8a52a9e49c5, 0xbfe7b78da0443523, 0xbfe6af45b1bed4b1,
    0xbfe5af405c3649e0, 0xbfe4b6fd6f970c1f, 0xbfe3c6080c36bfb5, 0xbfe2dbf557b0df43,
    0xbfe1f8635fc61659, 0xbfe11af823c75aa8, 0xbfe04360be7603ad, 0xbfdee2a156b413e5,
    0xbfdd490246defa6b, 0xbfdbb9611b80e2fb, 0xbfda33440224fa79, 0xbfd8b639a88b2df5,
    0xbfd741d876c67bb1, 0xbfd5d5bddf595f30, 0xbfd4718dc271c41b, 0xbfd314f1e1d35ce4,
    0xbfd1bf99635a6b95, 0xbfd07138604d5862, 0xbfce530effe71012, 0xbfcbd087383bd8ad,
    0xbfc95a5adcf7017f, 0xbfc6f0128b756abc, 0xbfc4913d8333b561, 0xbfc23d712a49c202,
    0xbfbfe89139dbd566, 0xbfbb6ac88dad5b1c, 0xbfb700d30aeac0e1, 0xbfb2aa04a44717a5,
    0xbfaccb73cdddb2cc, 0xbfa466aed42de3ea, 0xbf98492528c8cabf, 0xbf8010157588de71,
    0xc0425e4f7b2737fa, 0xbca0000000000000, 0x4021f971dc96eaad, 0x402a4acafc34c067,
    0x402d046ec97fa33f, 0x4031377a2be97aa3, 0x3ff0000000000000, 0x3fefd88da3d12526,
    0x3fef6297cff75cb0, 0x3fee9f4156c62dda, 0x3fed906bcf328d46, 0x3fec38b2f180bdb1,
    0x3fea9b66290ea1a3, 0x3fe8bc806b151741, 0x3fe6a09e667f3bcd, 0x3fe44cf325091dd6,
    0x3fe1c73b39ae68c9, 0x3fde2b5d3806f63e, 0x3fd87de2a6aea964, 0x3fd294062ed59f05,
    0x3fc8f8b83c69a60d, 0x3fb917a6bc29b438, 0x3c91a62633145c07, 0xbfb917a6bc29b42f,
    0xbfc8f8b83c69a608, 0xbfd294062ed59f02, 0xbfd87de2a6aea962, 0xbfde2b5d3806f63c,
    0xbfe1c73b39ae68c6, 0xbfe44cf325091dd5, 0xbfe6a09e667f3bcc, 0xbfe8bc806b151741,
    0xbfea9b66290ea1a4, 0xbfec38b2f180bdb0, 0xbfed906bcf328d46, 0xbfee9f4156c62dda,
    0xbfef6297cff75cb0, 0xbfefd88da3d12525, 0xbff0000000000000, 0xbfefd88da3d12526,
    0xbfef6297cff75cb0, 0xbfee9f4156c62ddb, 0xbfed906bcf328d47, 0xbfec38b2f180bdb1,
    0xbfea9b66290ea1a5, 0xbfe8bc806b151742, 0xbfe6a09e667f3bce, 0xbfe44cf325091dda,
    0xbfe1c73b39ae68c8, 0xbfde2b5d3806f63f, 0xbfd87de2a6aea96d, 0xbfd294062ed59f07,
    0xbfc8f8b83c69a619, 0xbfb917a6bc29b421, 0xbcaa79394c9e8a0a, 0x3fb917a6bc29b407,
    0x3fc8f8b83c69a60c, 0x3fd294062ed59f00, 0x3fd87de2a6aea967, 0x3fde2b5d3806f63a,
    0x3fe1c73b39ae68c5, 0x3fe44cf325091dd7, 0x3fe6a09e667f3bcb, 0x3fe8bc806b15173e,
    0x3fea9b66290ea1a3, 0x3fec38b2f180bdaf, 0x3fed906bcf328d44, 0x3fee9f4156c62dda,
    0x3fef6297cff75caf, 0x3fefd88da3d12526, 0x3fc8769c310f1f3a, 0x3fcc50ac4f474a84,
    0x3fd025620c797206, 0x3fd23158e1d0102d, 0x3fd44b4c656bcd14, 0x3fd6726f8549d98b,
    0x3fd8a60f9469a946, 0x3fdae58f45855bd7, 0x3fdd3062df06b9d7, 0x3fdf860d4d2d3324,
    0x3fe0f30eeacbe13e, 0x3fe22817213cdf6e, 0x3fe361f0b414b6a3, 0x3fe4a070f7ffc69c,
    0x3fe5e370ac9426b4, 0x3fe72acb91fcac34, 0x3fc51cb453b9536e, 0x3fc8769c310f1f3e,
    0x3fcbec95fa0c50d8, 0x3fcf7cb21a4b8a3e, 0x3fd192a6553972bb, 0x3fd3727e49adfad3,
    0x3fd55d43ba226598, 0x3fd7526c5aafde1b, 0x3fd9517d64ebec1f, 0x3fdb5a08ff001a20,
    0x3fdd6bac326c625f, 0x3fdf860d4d2d3324, 0x3fe0d46d498ea664, 0x3fe1e9e4966adfea,
    0x3fe3034a232ecfdb, 0x3fe4207e29c0d5e5, 0x3fc1e131ef17989a, 0x3fc4bf35f791ee8d,
    0x3fc7b576af274719, 0x3fcac2449f53f2b2, 0x3fcde432b40ab7ae, 0x3fd08d03ab3e035a,
    0x3fd23158e1d0102e, 0x3fd3dea11967820e, 0x3fd59471f57c70ee, 0x3fd7526c5aafde1a,
    0x3fd9183aa6aad3cb, 0x3fdae58f45855bd4, 0x3fdcba238d9cf2c9, 0x3fde95b6d1551232,
    0x3fe03c06cd5b6a72, 0x3fe1307884012846, 0x3fbd8de201d7ddbc, 0x3fc12db4f01eeda0,
    0x3fc3a903a3b737f5, 0x3fc6376b797f3512, 0x3fc8d7b43daf1a88, 0x3fcb88d22a28fff7,
    0x3fce49dc9fb0efa5, 0x3fd08d03ab3e035c, 0x3fd1fc4e9f808717, 0x3fd3727e49adfad4,
    0x3fd4ef49e252fbd6, 0x3fd6726f8549d98c, 0x3fd7fbb336869171, 0x3fd98ade157ddbe3,
    0x3fdb1fbdb4b08c9c, 0x3fdcba238d9cf2c9,
];

#[test]
fn libm_bits_match_the_pinned_host() {
    let inputs = inputs();
    assert_eq!(inputs.len(), PINS.len());
    let mismatches: Vec<String> = inputs
        .iter()
        .zip(PINS)
        .filter_map(|(&(function, x), pin)| {
            let got = eval(function, x).to_bits();
            (got != pin).then(|| {
                format!(
                    "{function}({x:e}, bits {:#018x}) = {:#018x}, pinned {pin:#018x}",
                    x.to_bits(),
                    got
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "this host's libm differs from the pinned one on {} of {} inputs:\n{}",
        mismatches.len(),
        PINS.len(),
        mismatches.join("\n")
    );
}
