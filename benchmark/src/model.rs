//! Seeded networks and inputs. Everything a run feeds the program is
//! derived from the workload seed through [`sub_seed`], so the same seed
//! gives the same networks, inputs, schedules and request mix.

use eb_bitnn::{
    BinLinear, Bnn, Dataset, DatasetKind, FixedLinear, Layer, OutputLinear, Shape, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent stream seed for one purpose (`tag`) of a run seeded
/// with `seed` (SplitMix64 finaliser over the pair).
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut z = seed
        ^ tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, tag: &str) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, tag))
}

/// A multilayer BNN over `dims = [in, hidden.., classes]`, laid out like
/// `eb-serve`'s demo net: a fixed-point input layer, binary hidden
/// layers, and a real-valued output layer.
pub fn mlp(name: &str, dims: &[usize], rng: &mut StdRng) -> Bnn {
    assert!(
        dims.len() >= 3,
        "an MLP needs input, hidden and output widths"
    );
    let mut layers = vec![Layer::FixedLinear(FixedLinear::random(
        "in", dims[0], dims[1], rng,
    ))];
    for (i, w) in dims[1..dims.len() - 1].windows(2).enumerate() {
        layers.push(Layer::BinLinear(BinLinear::random(
            format!("h{i}"),
            w[0],
            w[1],
            rng,
        )));
    }
    let n = dims.len();
    layers.push(Layer::Output(OutputLinear::random(
        "out",
        dims[n - 2],
        dims[n - 1],
        rng,
    )));
    Bnn::new(name, Shape::Flat(dims[0]), layers).expect("valid MLP shape")
}

/// `n` dense inputs of `width` values uniform in [-1, 1).
pub fn uniform_inputs(n: usize, width: usize, rng: &mut StdRng) -> Vec<Tensor> {
    (0..n)
        .map(|_| Tensor::from_fn(&[width], |_| rng.gen_range(-1.0f32..1.0)))
        .collect()
}

/// `n` sparse synthetic MNIST images, flattened to 784 values.
pub fn mnist_inputs(n: usize, seed: u64) -> Vec<Tensor> {
    Dataset::generate(DatasetKind::Mnist, n, seed)
        .samples()
        .iter()
        .map(|(img, _)| Tensor::from_vec(&[img.len()], img.as_slice().to_vec()))
        .collect()
}

/// Bit patterns of a logits vector — the unit of every correctness check.
pub fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The software reference `Bnn::forward` for every input, as bit
/// patterns.
pub fn references(net: &Bnn, inputs: &[Tensor]) -> Vec<Vec<u32>> {
    inputs
        .iter()
        .map(|x| bits(net.forward(x).expect("reference forward").as_slice()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        assert_eq!(sub_seed(1, "inputs"), sub_seed(1, "inputs"));
        assert_ne!(sub_seed(1, "inputs"), sub_seed(2, "inputs"));
        assert_ne!(sub_seed(1, "inputs"), sub_seed(1, "weights"));
    }

    #[test]
    fn mlp_has_the_requested_shape() {
        let net = mlp("m", &[16, 32, 32, 10], &mut rng(3, "w"));
        let x = uniform_inputs(1, 16, &mut rng(3, "x")).remove(0);
        assert_eq!(net.forward(&x).unwrap().len(), 10);
        assert_eq!(mnist_inputs(2, 5)[0].shape(), &[784]);
    }
}
