package machine

// Malformed directives are themselves findings: unknown directive names
// (including the retired shardsafe annotation), unknown rule, and a
// suppression without a reason.

//tdnuca:frobnicate
// want-above directive/syntax

//tdnuca:allow(bogus) the rule does not exist
// want-above directive/syntax

var placeholder = 0 //tdnuca:allow(alloc)
// want-above directive/syntax

//tdnuca:shardsafe
// want-above directive/syntax
