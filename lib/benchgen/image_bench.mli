(** Synthetic image-classification benchmarks (ex80-ex99 substitutes).

    MNIST and CIFAR-10 are unavailable offline; these generators reproduce
    the regime the contest benchmarks exercise: binarized images from 10
    classes, compared between two label groups.  Each class has prototype
    bitmaps; a sample picks a class from either group, picks one of the
    class's prototypes, flips every pixel independently with the dataset's
    noise rate, and labels the sample by group membership.

    The "MNIST" profile uses well-separated prototypes and low noise (high
    attainable accuracy); the "CIFAR" profile shares most of each
    prototype across classes and adds heavy noise, capping attainable
    accuracy well below 100% — the behaviour the paper reports. *)

type profile = Mnist | Cifar

type t

val create : profile -> seed:int -> t

val group_pairs : (int list * int list) array
(** The paper's Table II: element [i] is (group A labels, group B labels)
    of comparison [i]; group A maps to output 0. *)

val sample : t -> comparison:int -> Random.State.t -> bool array * bool
(** Draw one labelled sample for comparison index [0..9]. *)
