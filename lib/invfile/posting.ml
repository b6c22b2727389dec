type t = {
  node : int;
  children : int array;
  leaf_count : int;
  post : int;
  parent : int;
}

let of_tree_node (n : Nested.Tree.node) =
  {
    node = n.Nested.Tree.id;
    children = n.Nested.Tree.children;
    leaf_count = Array.length n.Nested.Tree.leaves;
    post = n.Nested.Tree.post;
    parent = n.Nested.Tree.parent;
  }

let compare a b = Int.compare a.node b.node

let pp ppf t =
  Format.fprintf ppf "(%d, {%s})" t.node
    (String.concat ", " (List.map string_of_int (Array.to_list t.children)))
