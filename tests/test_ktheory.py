from oracles import order_parameters
from qde.classgroup import (
    AbelianGroupStructure,
    _class_data,
    _principal_form,
    class_number_order,
)
from qde.ktheory import crossed_product_k0
from qde.lattice import QuadraticOrder, companion_tori
from qde.quadratic import QuadraticIrrational, parse_theta


def test_descriptor_for_class_number_one():
    descriptor = crossed_product_k0(parse_theta("(1+sqrt(5))/2"))
    assert descriptor.k0_rank == 2
    assert descriptor.trace_generators == ("1", "theta")
    assert descriptor.galois_group == AbelianGroupStructure(())
    assert descriptor.lambda_classes == ()


def test_descriptor_for_sqrt10():
    descriptor = crossed_product_k0(parse_theta("sqrt(10)"))
    assert descriptor.k0_rank == 3
    assert descriptor.trace_generators == ("1", "theta", "lambda_1")
    assert descriptor.galois_group == AbelianGroupStructure((2,))
    assert len(descriptor.lambda_classes) == 1
    assert descriptor.lambda_classes[0].as_tuple() == (2, 4, -3)


def test_descriptor_for_nonmaximal_order():
    descriptor = crossed_product_k0(parse_theta("sqrt(8)"))
    assert descriptor.order == QuadraticOrder(2, 2)
    assert descriptor.k0_rank == 2


def test_rank_and_galois_arithmetic_over_sweep():
    for D, f in order_parameters(300):
        order = QuadraticOrder(D, f)
        theta = companion_tori(order)[0]
        descriptor = crossed_product_k0(theta)
        h = class_number_order(order)
        assert descriptor.k0_rank == h + 1
        assert descriptor.galois_group.order == h
        assert len(descriptor.trace_generators) == descriptor.k0_rank
        assert len(descriptor.lambda_classes) == h - 1


def test_descriptor_is_invariant_across_companions():
    for D, f in order_parameters(300):
        order = QuadraticOrder(D, f)
        tori = companion_tori(order)
        if len(tori) < 2:
            continue
        descriptors = [crossed_product_k0(theta) for theta in tori]
        first = descriptors[0]
        for other in descriptors[1:]:
            assert other.k0_rank == first.k0_rank
            assert other.galois_group == first.galois_group
            assert other.trace_generators == first.trace_generators
            assert other.lambda_classes == first.lambda_classes
            assert other.order == first.order


def test_lambda_i_is_the_class_of_companion_i():
    # one representative per class: the principal form names the identity and
    # comes first, and lambda_i is the least a > 0 form whose larger root is
    # companion i
    for D, f in order_parameters(3000):
        order = QuadraticOrder(D, f)
        disc = order.discriminant
        data = _class_data(disc)
        assert data.classes[0] == data.identity == _principal_form(disc), (D, f)
        tori = companion_tori(order)
        descriptor = crossed_product_k0(tori[0])
        for i, form in enumerate(descriptor.lambda_classes, start=1):
            root = QuadraticIrrational.canonical(-form.b, 1, 2 * form.a, disc)
            assert form.a > 0 and root == tori[i], (D, f, i)
