type entry = {
  model_name : string;
  aliases : string list;
  build : unit -> Dnn_graph.Graph.t;
}

let resnet152 = { model_name = Resnet.name_152; aliases = [ "rn" ]; build = Resnet.build_152 }

let googlenet = { model_name = Googlenet.name; aliases = [ "gn" ]; build = Googlenet.build }

let inception_v4 =
  { model_name = Inception_v4.name; aliases = [ "in"; "inceptionv4" ]; build = Inception_v4.build }

let all =
  [ resnet152;
    { model_name = Resnet.name_50; aliases = [ "rn50" ]; build = Resnet.build_50 };
    googlenet;
    inception_v4;
    { model_name = Alexnet.name; aliases = []; build = Alexnet.build };
    { model_name = Vgg.name; aliases = [ "vgg" ]; build = Vgg.build };
    { model_name = Mobilenet.name; aliases = [ "mobilenet"; "mn2" ]; build = Mobilenet.build };
    { model_name = Densenet.name; aliases = [ "densenet"; "dn121" ]; build = Densenet.build };
    { model_name = Squeezenet.name; aliases = [ "sn" ]; build = Squeezenet.build };
    { model_name = Resnet.name_next_50; aliases = [ "resnext" ]; build = Resnet.build_next_50 };
    { model_name = Vgg.name_19; aliases = []; build = Vgg.build_19 };
    { model_name = Resnet.name_34; aliases = [ "rn34" ]; build = Resnet.build_34 };
    { model_name = Inception_v3.name; aliases = [ "in3" ]; build = Inception_v3.build } ]

let find name =
  let needle = String.lowercase_ascii name in
  List.find_opt
    (fun e -> e.model_name = needle || List.mem needle e.aliases)
    all

let build name =
  match find name with
  | Some e -> e.build ()
  | None ->
    let known = String.concat ", " (List.map (fun e -> e.model_name) all) in
    invalid_arg (Printf.sprintf "Zoo.build: unknown model %S (known: %s)" name known)

